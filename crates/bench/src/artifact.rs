//! Section-merging writer for the shared `BENCH_*.json` artifacts.
//!
//! Several benches record into one file (`serving_throughput`,
//! `serving_multi_tenant` and `serving_drift` all write
//! `BENCH_serving.json`), so none of them may rewrite the whole file: each
//! merges its own top-level sections and leaves every other section as it
//! found it.

/// Merge `sections` into the JSON object stored at `path`.
///
/// Each `(key, value)` pair — `value` being raw JSON text — replaces the
/// key's existing value in place, or is appended when the key is new.
/// Every other top-level section is kept byte for byte, in its order.  A
/// missing file starts from an empty object.
///
/// # Panics
/// Panics when the file cannot be read or written, or when it does not
/// hold a JSON object: overwriting it would drop the other benches'
/// sections.
pub fn merge_json_sections(path: &str, sections: &[(&str, String)]) {
    let mut entries = match std::fs::read_to_string(path) {
        Ok(text) => split_top_level(&text).unwrap_or_else(|e| panic!("{path} is not a JSON object: {e}")),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => panic!("cannot read {path}: {e}"),
    };
    for (key, value) in sections {
        let value = value.trim().to_string();
        match entries.iter_mut().find(|(k, _)| k == key) {
            Some(entry) => entry.1 = value,
            None => entries.push((key.to_string(), value)),
        }
    }
    let body: Vec<String> = entries.iter().map(|(k, v)| format!("  \"{k}\": {v}")).collect();
    let json = format!("{{\n{}\n}}\n", body.join(",\n"));
    std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
}

/// Split a JSON object into its top-level `(key, raw value)` pairs.  Only
/// the nesting of brackets and strings is tracked; the values themselves
/// are kept as text.
fn split_top_level(text: &str) -> Result<Vec<(String, String)>, String> {
    let body = text.trim();
    let body = body.strip_prefix('{').and_then(|b| b.strip_suffix('}')).ok_or("the text is not enclosed in braces")?;
    let mut entries = Vec::new();
    let mut rest = body.trim_start();
    while !rest.is_empty() {
        let after_quote = rest.strip_prefix('"').ok_or_else(|| format!("expected a key at: {}", head(rest)))?;
        let key_len = string_len(after_quote).ok_or("unterminated key")?;
        let key = after_quote[..key_len].to_string();
        rest = after_quote[key_len + 1..].trim_start();
        rest = rest.strip_prefix(':').ok_or_else(|| format!("expected ':' after \"{key}\""))?.trim_start();
        let end = value_len(rest);
        let value = rest[..end].trim();
        if value.is_empty() {
            return Err(format!("\"{key}\" has no value"));
        }
        entries.push((key, value.to_string()));
        rest = rest[end..].trim_start();
        if let Some(r) = rest.strip_prefix(',') {
            rest = r.trim_start();
        } else if !rest.is_empty() {
            return Err(format!("expected ',' at: {}", head(rest)));
        }
    }
    Ok(entries)
}

/// Byte length of a string body up to (not including) its closing quote.
fn string_len(s: &str) -> Option<usize> {
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' => escaped = true,
            '"' => return Some(i),
            _ => {}
        }
    }
    None
}

/// Byte length of the value at the start of `s`: up to the first `,` outside
/// any bracket or string, or the end.
fn value_len(s: &str) -> usize {
    let mut depth = 0usize;
    let mut chars = s.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => {
                let len = string_len(&s[i + 1..]).unwrap_or(s.len() - i - 1);
                // Skip the string body and its closing quote.
                let close = i + 1 + len;
                while chars.next().is_some_and(|(j, _)| j < close) {}
            }
            '{' | '[' => depth += 1,
            '}' | ']' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => return i,
            _ => {}
        }
    }
    s.len()
}

fn head(s: &str) -> &str {
    &s[..s.char_indices().nth(24).map_or(s.len(), |(i, _)| i)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(tag: &str) -> String {
        std::env::temp_dir().join(format!("bench-artifact-{}-{tag}.json", std::process::id())).display().to_string()
    }

    #[test]
    fn merging_keeps_other_sections_and_replaces_in_place() {
        let path = temp("merge");
        let _ = std::fs::remove_file(&path);
        merge_json_sections(&path, &[("bench", "\"a\"".into()), ("first", "{\n    \"x\": 1\n  }".into())]);
        merge_json_sections(&path, &[("drift", "{ \"note\": \"a, {b}\", \"v\": [1, 2] }".into())]);
        merge_json_sections(&path, &[("first", "{ \"x\": 2 }".into()), ("last", "3".into())]);
        let text = std::fs::read_to_string(&path).expect("written");
        let entries = split_top_level(&text).expect("valid object");
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["bench", "first", "drift", "last"]);
        assert_eq!(entries[1].1, "{ \"x\": 2 }");
        assert_eq!(entries[2].1, "{ \"note\": \"a, {b}\", \"v\": [1, 2] }");
        // Re-merging the same sections is idempotent.
        merge_json_sections(&path, &[("last", "3".into())]);
        assert_eq!(std::fs::read_to_string(&path).expect("written"), text);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn non_objects_are_rejected() {
        assert!(split_top_level("[1, 2]").is_err());
        assert!(split_top_level("{ \"a\" 1 }").is_err());
        assert!(split_top_level("{ \"a\": }").is_err());
        assert_eq!(split_top_level("{}").expect("empty object"), Vec::new());
        let escaped = split_top_level(r#"{ "k\"ey": "v\\", "n": null }"#).expect("escapes");
        assert_eq!(escaped[0], (r#"k\"ey"#.to_string(), r#""v\\""#.to_string()));
    }
}

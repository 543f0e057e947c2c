//! The pattern-rule DSL of Section 5.2.
//!
//! A rule is `⟨F, P, L⟩`: a string function `F ∈ {Prefix, Suffix}`, a pattern
//! `P` (a sequence of character-class tokens `PC`, `Pl`, `Pn`, `Ps` and exact
//! tokens `Pt(T)`), and a length `L`.  Applied to a tuple value the rule
//! finds the first region matching `P` and extracts the first (`Prefix`) or
//! last (`Suffix`) `L` characters of that region.  Rules generalize the
//! query substrings of the workload so the dictionary also covers strings
//! future queries will ask for.

use std::fmt;

/// One token of a pattern.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PatToken {
    /// `PC` — one or more capital letters.
    Capital,
    /// `Pl` — one or more lowercase letters.
    Lower,
    /// `Pn` — one or more digits.
    Digit,
    /// `Ps` — one or more whitespace characters.
    Space,
    /// `Pt(T)` — the exact string `T`.
    Token(String),
}

impl PatToken {
    fn class_of(c: char) -> Option<PatToken> {
        if c.is_ascii_uppercase() {
            Some(PatToken::Capital)
        } else if c.is_ascii_lowercase() {
            Some(PatToken::Lower)
        } else if c.is_ascii_digit() {
            Some(PatToken::Digit)
        } else if c.is_whitespace() {
            Some(PatToken::Space)
        } else {
            None
        }
    }

    fn matches_char(&self, c: char) -> bool {
        match self {
            PatToken::Capital => c.is_ascii_uppercase(),
            PatToken::Lower => c.is_ascii_lowercase(),
            PatToken::Digit => c.is_ascii_digit(),
            PatToken::Space => c.is_whitespace(),
            PatToken::Token(_) => false,
        }
    }
}

impl fmt::Display for PatToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatToken::Capital => write!(f, "PC"),
            PatToken::Lower => write!(f, "Pl"),
            PatToken::Digit => write!(f, "Pn"),
            PatToken::Space => write!(f, "Ps"),
            PatToken::Token(t) => write!(f, "Pt(\"{t}\")"),
        }
    }
}

/// A pattern: a sequence of tokens matched greedily and contiguously.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Pattern(pub Vec<PatToken>);

impl Pattern {
    /// Segment a string into its character-class runs (e.g. `"Din05"` →
    /// `[PC, Pl, Pn]`).  Characters outside the four classes become exact
    /// tokens.
    pub fn segment(s: &str) -> Pattern {
        let mut tokens: Vec<PatToken> = Vec::new();
        for c in s.chars() {
            match PatToken::class_of(c) {
                Some(class) => {
                    if tokens.last() != Some(&class) {
                        tokens.push(class);
                    }
                }
                None => match tokens.last_mut() {
                    Some(PatToken::Token(t)) => t.push(c),
                    _ => tokens.push(PatToken::Token(c.to_string())),
                },
            }
        }
        Pattern(tokens)
    }

    /// Try to match the pattern starting exactly at byte-char position
    /// `start` of `chars`; returns the end position (exclusive) on success.
    fn match_at(&self, chars: &[char], start: usize) -> Option<usize> {
        let mut pos = start;
        for tok in &self.0 {
            match tok {
                PatToken::Token(t) => {
                    let t_chars: Vec<char> = t.chars().collect();
                    if pos + t_chars.len() > chars.len() || chars[pos..pos + t_chars.len()] != t_chars[..] {
                        return None;
                    }
                    pos += t_chars.len();
                }
                class => {
                    let mut n = 0;
                    while pos + n < chars.len() && class.matches_char(chars[pos + n]) {
                        n += 1;
                    }
                    if n == 0 {
                        return None;
                    }
                    pos += n;
                }
            }
        }
        Some(pos)
    }

    /// Find the first region of `value` that the pattern matches, returning
    /// `(start, end)` character positions.
    pub fn find(&self, value: &str) -> Option<(usize, usize)> {
        let chars: Vec<char> = value.chars().collect();
        for start in 0..=chars.len() {
            if let Some(end) = self.match_at(&chars, start) {
                if end > start {
                    return Some((start, end));
                }
            }
        }
        None
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for t in &self.0 {
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

/// The string function of a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StringFunc {
    Prefix,
    Suffix,
}

/// A substring-extraction rule `⟨F, P, L⟩`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Rule {
    pub func: StringFunc,
    pub pattern: Pattern,
    pub len: usize,
}

impl Rule {
    /// Apply the rule to a tuple value, extracting a substring when the
    /// pattern matches a region at least `len` characters long.
    pub fn extract(&self, value: &str) -> Option<String> {
        let (start, end) = self.pattern.find(value)?;
        let chars: Vec<char> = value.chars().collect();
        if end - start < self.len {
            return None;
        }
        let slice = match self.func {
            StringFunc::Prefix => &chars[start..start + self.len],
            StringFunc::Suffix => &chars[end - self.len..end],
        };
        Some(slice.iter().collect())
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fname = match self.func {
            StringFunc::Prefix => "Prefix",
            StringFunc::Suffix => "Suffix",
        };
        write!(f, "⟨{fname}, {}, {}⟩", self.pattern, self.len)
    }
}

/// Generate candidate rules mapping a workload query substring `query` to a
/// dataset value `value` that contains it (Tables 4 and 5 of the paper).
///
/// For every occurrence of `query` in `value` we emit:
/// * an exact-token prefix rule `⟨Prefix, Pt(query), |query|⟩`,
/// * class-generalized prefix rules over the region starting at the match,
/// * class-generalized suffix rules over the region ending at the match.
pub fn candidate_rules(query: &str, value: &str) -> Vec<Rule> {
    let mut rules = Vec::new();
    if query.is_empty() || !value.contains(query) {
        return rules;
    }
    let len = query.chars().count();
    rules.push(Rule { func: StringFunc::Prefix, pattern: Pattern(vec![PatToken::Token(query.to_string())]), len });

    let start_byte = value.find(query).expect("contains checked");
    let start = value[..start_byte].chars().count();
    let end = start + len;
    let chars: Vec<char> = value.chars().collect();

    // Prefix rules: pattern of the region from the match start to several end
    // points (end of match, end of value).
    for region_end in [end, chars.len()] {
        if region_end > start {
            let region: String = chars[start..region_end].iter().collect();
            rules.push(Rule { func: StringFunc::Prefix, pattern: Pattern::segment(&region), len });
        }
    }
    // Suffix rules: region from several start points (match start, value
    // start) to the match end.
    for region_start in [start, 0] {
        if end > region_start {
            let region: String = chars[region_start..end].iter().collect();
            rules.push(Rule { func: StringFunc::Suffix, pattern: Pattern::segment(&region), len });
        }
    }
    // Keep only rules that actually map this value back to the query string;
    // greedy class matching can otherwise shift the extracted region.
    rules.retain(|r| r.extract(value).as_deref() == Some(query));
    rules.sort_by_key(|r| format!("{r}"));
    rules.dedup();
    rules
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_splits_class_runs() {
        let p = Pattern::segment("Dinos in Kas");
        assert_eq!(
            p.0,
            vec![
                PatToken::Capital,
                PatToken::Lower,
                PatToken::Space,
                PatToken::Lower,
                PatToken::Space,
                PatToken::Capital,
                PatToken::Lower,
            ]
        );
        let p = Pattern::segment("(2002-06-29)");
        assert_eq!(p.0[0], PatToken::Token("(".into()));
        assert!(p.0.contains(&PatToken::Digit));
    }

    #[test]
    fn pattern_find_matches_region() {
        let p = Pattern(vec![PatToken::Digit, PatToken::Token("-".into()), PatToken::Digit]);
        let m = p.find("(2002-06-29)").expect("matches");
        assert_eq!(m, (1, 8)); // "2002-06"
        assert!(p.find("no digits here").is_none());
    }

    #[test]
    fn prefix_rule_extracts_din() {
        // "Dinos in Kas" → "Din" with ⟨Prefix, PC Pl, 3⟩
        let rule =
            Rule { func: StringFunc::Prefix, pattern: Pattern(vec![PatToken::Capital, PatToken::Lower]), len: 3 };
        assert_eq!(rule.extract("Dinos in Kas"), Some("Din".to_string()));
        assert_eq!(rule.extract("Schla in Tra"), Some("Sch".to_string()));
        // Region shorter than len: no extraction.
        assert_eq!(rule.extract("Ab cd"), None);
    }

    #[test]
    fn suffix_rule_extracts_date_component() {
        // "(2002-06-29)" → "06" with ⟨Suffix, Pn Pt("-") Pn, 2⟩ matching "2002-06".
        let rule = Rule {
            func: StringFunc::Suffix,
            pattern: Pattern(vec![PatToken::Digit, PatToken::Token("-".into()), PatToken::Digit]),
            len: 2,
        };
        assert_eq!(rule.extract("(2002-06-29)"), Some("06".to_string()));
        assert_eq!(rule.extract("(2014-08-26)"), Some("08".to_string()));
    }

    #[test]
    fn exact_token_rule_only_matches_that_token() {
        let rule = Rule { func: StringFunc::Prefix, pattern: Pattern(vec![PatToken::Token("Din".into())]), len: 3 };
        assert_eq!(rule.extract("Dinos in Kas"), Some("Din".to_string()));
        assert_eq!(rule.extract("Schla"), None);
    }

    #[test]
    fn candidate_rules_cover_the_query() {
        let cands = candidate_rules("Din", "Dinos in Kas");
        assert!(!cands.is_empty());
        // Every candidate must re-extract the query from the value it came from.
        for r in &cands {
            assert_eq!(r.extract("Dinos in Kas"), Some("Din".to_string()), "rule {r} failed");
        }
        // At least one candidate generalizes (contains a class token).
        assert!(cands.iter().any(|r| r.pattern.0.iter().any(|t| !matches!(t, PatToken::Token(_)))));
    }

    #[test]
    fn candidate_rules_for_infix_query() {
        let cands = candidate_rules("06", "(2002-06-29)");
        for r in &cands {
            assert_eq!(r.extract("(2002-06-29)"), Some("06".to_string()), "rule {r} failed");
        }
        // A generalized candidate should also extract from an unseen date.
        let generalizes = cands.iter().any(|r| r.extract("(2014-08-26)") == Some("08".to_string()));
        assert!(generalizes, "no candidate generalized to a new date");
    }

    #[test]
    fn no_candidates_when_query_absent() {
        assert!(candidate_rules("xyz", "Dinos in Kas").is_empty());
        assert!(candidate_rules("", "Dinos").is_empty());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn candidates_always_reextract_query(value in "[A-Za-z0-9 ()-]{1,20}", start in 0usize..10, len in 1usize..5) {
            let chars: Vec<char> = value.chars().collect();
            if start < chars.len() {
                let end = (start + len).min(chars.len());
                let query: String = chars[start..end].iter().collect();
                if !query.is_empty() {
                    for rule in candidate_rules(&query, &value) {
                        // Extraction from the originating value must reproduce
                        // a string of the query's length; the exact-token rule
                        // must reproduce the query itself.
                        if let Some(extracted) = rule.extract(&value) {
                            prop_assert_eq!(extracted.chars().count(), query.chars().count());
                        }
                    }
                }
            }
        }

        #[test]
        fn segment_pattern_matches_its_source(s in "[A-Za-z0-9 ]{1,15}") {
            let p = Pattern::segment(&s);
            prop_assert!(p.find(&s).is_some());
        }
    }
}

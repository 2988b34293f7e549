//! `LIKE` is matched by a two-pointer walk that remembers only the last
//! `%` (`eval::like_match`). Its oracle is the recursive matcher it
//! replaced, which tries every split at every `%`: obviously right, and
//! exponential in the number of `%`s.

use std::time::{Duration, Instant};

use crowddb_common::rng::Rng;
use crowddb_exec::eval::like_match;

/// The matcher `like_match` replaced, kept as the oracle.
fn oracle(text: &str, pattern: &str) -> bool {
    fn rec(t: &[char], p: &[char]) -> bool {
        match p.split_first() {
            None => t.is_empty(),
            Some(('%', rest)) => (0..=t.len()).any(|k| rec(&t[k..], rest)),
            Some(('_', rest)) => !t.is_empty() && rec(&t[1..], rest),
            Some((c, rest)) => t.first() == Some(c) && rec(&t[1..], rest),
        }
    }
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&t, &p)
}

/// Seeded texts and patterns over a small alphabet — so that literal
/// chars match often — with non-ASCII chars, literal `%`/`_` in the text,
/// runs of `%` and `_` in the pattern, and empty strings.
#[test]
fn like_match_agrees_with_the_recursive_oracle() {
    let text_chars = ['a', 'b', 'é', '中', '🦀', '%', '_', ' '];
    let pattern_chars = ['a', 'b', 'é', '中', '🦀', '%', '%', '_', '_'];
    let mut rng = Rng::seed_from_u64(0x5EED_0025);
    let mut draw = |alphabet: &[char], max: usize| -> String {
        (0..rng.gen_range(0..max + 1))
            .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
            .collect()
    };
    let mut matched = 0;
    for _ in 0..20_000 {
        let text = draw(&text_chars, 9);
        let pattern = draw(&pattern_chars, 7);
        let want = oracle(&text, &pattern);
        assert_eq!(
            like_match(&text, &pattern),
            want,
            "{text:?} LIKE {pattern:?}"
        );
        matched += usize::from(want);
    }
    // Both outcomes are well represented, or the property says little.
    assert!(
        (1_000..19_000).contains(&matched),
        "{matched} of 20000 matched"
    );

    for (text, pattern, want) in [
        ("", "", true),
        ("", "%", true),
        ("", "%%%", true),
        ("", "_", false),
        ("a", "", false),
        ("abc", "%%b%%", true),
        ("abc", "a__", true),
        ("abc", "a___", false),
        ("中🦀é", "_🦀_", true),
        ("中🦀é", "%é", true),
        ("a%b", "a%b", true),
        ("mississippi", "%iss%ppi", true),
        ("mississippi", "%iss%ippix", false),
    ] {
        assert_eq!(like_match(text, pattern), want, "{text:?} LIKE {pattern:?}");
        assert_eq!(
            oracle(text, pattern),
            want,
            "oracle: {text:?} LIKE {pattern:?}"
        );
    }
}

/// Seven `%a` groups against a 40-char value that has no `b`: the
/// recursive matcher took ≈ 343 ms per row (3 ms at four groups); the
/// two-pointer walk is 40 × 16 steps.
#[test]
fn many_percent_groups_cost_polynomial_time() {
    let text = "a".repeat(40);
    let pattern = "%a%a%a%a%a%a%a%b";
    let started = Instant::now();
    assert!(!like_match(&text, pattern));
    assert!(like_match(&format!("{text}b"), pattern));
    let took = started.elapsed();
    assert!(took < Duration::from_millis(5), "{took:?}");
}

//! The determinism check across runs: every count a run of one seed
//! produces is recorded under the working directory the first time and
//! must read exactly the same on every later run of that seed, the rule
//! the bench lab applies to its det rows.

use std::path::Path;

/// Compares `counts` with the record kept for `key`, writing the record
/// when none exists yet. Returns one line per disagreement.
pub fn check(dir: &Path, key: &str, counts: &[(&str, u64)]) -> Vec<String> {
    let path = dir.join(format!("{key}.det"));
    let now: String = counts.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    let Ok(before) = std::fs::read_to_string(&path) else {
        let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &now));
        if let Err(e) = written {
            eprintln!("svcbench: cannot record counts at {}: {e}", path.display());
        }
        return Vec::new();
    };
    let parse = |s: &str| -> Vec<(String, String)> {
        s.lines()
            .filter_map(|l| l.split_once(' '))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    };
    let (before, now) = (parse(&before), parse(&now));
    if before.iter().map(|(k, _)| k).ne(now.iter().map(|(k, _)| k)) {
        return vec![format!(
            "{key}: the recorded count names differ from this run's"
        )];
    }
    before
        .iter()
        .zip(&now)
        .filter(|(b, n)| b.1 != n.1)
        .map(|(b, n)| format!("{key}: {} was {} on an earlier run, {} now", b.0, b.1, n.1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_changed_count_is_reported_and_a_repeat_is_not() {
        let dir = std::env::temp_dir().join(format!("svcbench-det-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(check(&dir, "k", &[("energy", 10), ("depth", 3)]).is_empty());
        assert!(check(&dir, "k", &[("energy", 10), ("depth", 3)]).is_empty());
        let bad = check(&dir, "k", &[("energy", 11), ("depth", 3)]);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("energy was 10"), "{bad:?}");
        assert!(
            check(&dir, "other", &[("energy", 11)]).is_empty(),
            "keys are separate"
        );
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}

//! The tail every golden suite shares: compare a dump with the file
//! checked in under `tests/golden/` and explain a difference line by
//! line, or rewrite the file from this build.

use std::path::{Path, PathBuf};

fn path(file: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file)
}

/// Panics unless `got` equals `tests/golden/<file>` byte for byte; the
/// message counts the differing lines and quotes the first few.
pub fn assert_matches(file: &str, got: &str) {
    let want =
        std::fs::read_to_string(path(file)).unwrap_or_else(|e| panic!("tests/golden/{file}: {e}"));
    if got == want {
        return;
    }
    let differing: Vec<String> = got
        .lines()
        .zip(want.lines())
        .enumerate()
        .filter(|(_, (g, w))| g != w)
        .map(|(i, (g, w))| format!("  line {}:\n    got:  {g:?}\n    want: {w:?}", i + 1))
        .collect();
    panic!(
        "{} of {} lines differ from tests/golden/{file} ({} golden lines):\n{}",
        differing.len(),
        got.lines().count(),
        want.lines().count(),
        differing[..differing.len().min(5)].join("\n")
    );
}

/// Rewrites `tests/golden/<file>` from this build. By hand (`-- --ignored
/// regenerate_golden`), and only when the pinned behaviour is *meant* to
/// change.
pub fn regenerate(file: &str, got: &str) {
    let path = path(file);
    std::fs::create_dir_all(path.parent().unwrap()).expect("create tests/golden");
    std::fs::write(&path, got).expect("write the golden file");
}

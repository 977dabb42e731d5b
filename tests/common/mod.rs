//! Helpers the artifact suites share.

use gcd2_repro::compiler::ArtifactCache;
use std::ops::Deref;

/// An artifact cache in a directory of its own, removed when the guard
/// drops: at the end of the test, and when it panics.
pub struct TempCache(ArtifactCache);

impl TempCache {
    /// A cache in `<temp>/gcd2-<suite>-<tag>-<pid>`, emptied first.
    pub fn new(suite: &str, tag: &str) -> TempCache {
        let dir = std::env::temp_dir().join(format!("gcd2-{suite}-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempCache(ArtifactCache::open(dir).expect("temp cache dir"))
    }
}

impl Deref for TempCache {
    type Target = ArtifactCache;

    fn deref(&self) -> &ArtifactCache {
        &self.0
    }
}

impl Drop for TempCache {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(self.0.dir());
    }
}

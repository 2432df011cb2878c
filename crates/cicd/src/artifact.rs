//! Content-addressed artifact registry: the hand-off point between
//! pipeline stages and deployment targets.

use core::fmt;
use std::collections::HashMap;

use ntc_simcore::units::DataSize;

/// A content hash over artifact bytes (FNV-1a over the logical content
/// descriptor — the simulation has no real bytes to hash).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContentHash(u64);

impl ContentHash {
    /// Hashes a logical content descriptor.
    pub fn of(descriptor: &str) -> Self {
        const PRIME: u64 = 0x100000001b3;
        let mut h = 0xcbf29ce484222325u64;
        for b in descriptor.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
        ContentHash(h)
    }
}

impl fmt::Display for ContentHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// A versioned, content-addressed build artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    /// Component or bundle name.
    pub name: String,
    /// Release version this artifact belongs to.
    pub version: u64,
    /// Size of the deployable.
    pub size: DataSize,
    /// Content hash (identical content ⇒ identical hash across versions).
    pub hash: ContentHash,
}

/// An in-memory artifact registry with content-addressed de-duplication.
///
/// # Examples
///
/// ```
/// use ntc_cicd::artifact::{Artifact, ArtifactRegistry, ContentHash};
/// use ntc_simcore::units::DataSize;
///
/// let mut reg = ArtifactRegistry::new();
/// let a = Artifact {
///     name: "resize".into(),
///     version: 1,
///     size: DataSize::from_mib(10),
///     hash: ContentHash::of("resize-v1"),
/// };
/// reg.publish(a.clone());
/// assert_eq!(reg.latest("resize"), Some(&a));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ArtifactRegistry {
    by_name: HashMap<String, Vec<Artifact>>,
}

impl ArtifactRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes an artifact. Re-publishing identical content for the same
    /// name is a no-op (content addressing); a new version is appended.
    pub fn publish(&mut self, artifact: Artifact) {
        let entry = self.by_name.entry(artifact.name.clone()).or_default();
        if entry.last().is_some_and(|a| a.hash == artifact.hash) {
            return;
        }
        entry.push(artifact);
    }

    /// The most recently published artifact for `name`.
    pub fn latest(&self, name: &str) -> Option<&Artifact> {
        self.by_name.get(name).and_then(|v| v.last())
    }

    /// A specific version of `name`, if it was published.
    pub fn version(&self, name: &str, version: u64) -> Option<&Artifact> {
        self.by_name.get(name).and_then(|v| v.iter().rev().find(|a| a.version == version))
    }

    /// The number of stored versions of `name`.
    pub fn version_count(&self, name: &str) -> usize {
        self.by_name.get(name).map_or(0, Vec::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn art(name: &str, version: u64, content: &str) -> Artifact {
        Artifact {
            name: name.into(),
            version,
            size: DataSize::from_mib(5),
            hash: ContentHash::of(content),
        }
    }

    #[test]
    fn publish_and_lookup() {
        let mut reg = ArtifactRegistry::new();
        reg.publish(art("a", 1, "a1"));
        reg.publish(art("a", 2, "a2"));
        reg.publish(art("b", 1, "b1"));
        assert_eq!(reg.latest("a").unwrap().version, 2);
        assert_eq!(reg.version("a", 1).unwrap().version, 1);
        assert_eq!(reg.version_count("a"), 2);
        assert_eq!(reg.latest("missing"), None);
    }

    #[test]
    fn identical_content_is_deduplicated() {
        let mut reg = ArtifactRegistry::new();
        reg.publish(art("a", 1, "same"));
        reg.publish(art("a", 2, "same"));
        assert_eq!(reg.version_count("a"), 1, "unchanged content must not create a version");
        reg.publish(art("a", 3, "different"));
        assert_eq!(reg.version_count("a"), 2);
    }

    #[test]
    fn hashes_differ_for_different_content() {
        assert_ne!(ContentHash::of("x"), ContentHash::of("y"));
        assert_eq!(ContentHash::of("x"), ContentHash::of("x"));
        assert_eq!(format!("{}", ContentHash::of("x")).len(), 16);
    }
}

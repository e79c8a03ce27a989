//! Typed errors for decoding and validating fitted models.
//!
//! A serving `Reload` endpoint wants to log *where* a model went bad, so
//! decoding reports [`ModelDecodeError`]. Wire-format failures carry the
//! byte offset of the corruption; structural failures found by tree
//! validation name the offending node (in the compact `MSDT` encoding,
//! node `i` sits at byte offset `16 + 16 * i`). `String` conversion is
//! kept so existing `Result<_, String>` call sites keep compiling (the
//! same pattern `misam::persist::PersistError` follows).

/// Why a model failed to decode or validate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelDecodeError {
    /// The magic bytes at the start of the blob are wrong or missing.
    BadMagic {
        /// The magic the decoder expected (e.g. `MSDT`).
        expected: [u8; 4],
        /// Bytes actually found (zero-padded when the blob is shorter
        /// than four bytes).
        found: [u8; 4],
    },
    /// The blob ends before the structure it declares.
    Truncated {
        /// Bytes the declared structure requires.
        expected: usize,
        /// Bytes actually present.
        found: usize,
        /// Offset of the structure that could not be read.
        offset: usize,
    },
    /// A split node's child index is not in `(node, count)`: it points
    /// outside the node array, or backwards (which could cycle).
    LinkOutOfRange {
        /// Index of the offending node.
        node: usize,
        /// The offending child link.
        link: u32,
        /// Number of nodes in the array.
        count: usize,
    },
    /// A node record carries an unknown tag byte.
    UnknownTag {
        /// The unrecognized tag.
        tag: u8,
        /// Index of the offending node.
        node: usize,
        /// Byte offset of the offending node record.
        offset: usize,
    },
    /// A split tests a feature the tree does not have.
    FeatureOutOfRange {
        /// Index of the offending node.
        node: usize,
        /// The out-of-range feature index.
        feature: u16,
        /// The tree's feature count.
        n_features: usize,
    },
    /// A classifier leaf predicts a class the tree does not have.
    ClassOutOfRange {
        /// Index of the offending node.
        node: usize,
        /// The out-of-range class.
        class: u32,
        /// The tree's class count.
        n_classes: usize,
    },
    /// A tree or forest has no nodes or no trees.
    Empty,
    /// A model's shape disagrees with what its container expects (tree
    /// count, feature arity, class count).
    Shape {
        /// Which quantity disagrees.
        what: &'static str,
        /// The value the container expects.
        expected: usize,
        /// The value the model carries.
        found: usize,
    },
    /// A member tree of a forest failed validation.
    Tree {
        /// Index of the offending tree.
        tree: usize,
        /// The tree-level failure.
        source: Box<ModelDecodeError>,
    },
}

impl std::fmt::Display for ModelDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelDecodeError::BadMagic { expected, found } => write!(
                f,
                "missing {} header (found {:?})",
                String::from_utf8_lossy(expected),
                found
            ),
            ModelDecodeError::Truncated { expected, found, offset } => {
                write!(f, "expected {expected} bytes, got {found} (at offset {offset})")
            }
            ModelDecodeError::LinkOutOfRange { node, link, count } => {
                write!(f, "node {node} links to {link}, outside ({node}, {count})")
            }
            ModelDecodeError::UnknownTag { tag, node, offset } => {
                write!(f, "unknown node tag {tag} at node {node} (offset {offset})")
            }
            ModelDecodeError::FeatureOutOfRange { node, feature, n_features } => {
                write!(f, "node {node} splits on feature {feature} of {n_features}")
            }
            ModelDecodeError::ClassOutOfRange { node, class, n_classes } => {
                write!(f, "node {node} predicts class {class} of {n_classes}")
            }
            ModelDecodeError::Empty => write!(f, "model has no nodes"),
            ModelDecodeError::Shape { what, expected, found } => {
                write!(f, "{what} is {found}, expected {expected}")
            }
            ModelDecodeError::Tree { tree, source } => write!(f, "tree {tree}: {source}"),
        }
    }
}

impl std::error::Error for ModelDecodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelDecodeError::Tree { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

/// Existing call sites accumulate errors as `String`; keep `?` working
/// for them.
impl From<ModelDecodeError> for String {
    fn from(e: ModelDecodeError) -> Self {
        e.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_offsets_and_context() {
        let e = ModelDecodeError::Truncated { expected: 48, found: 30, offset: 16 };
        let s = e.to_string();
        assert!(s.contains("48") && s.contains("30") && s.contains("16"), "{s}");

        let nested = ModelDecodeError::Tree {
            tree: 2,
            source: Box::new(ModelDecodeError::UnknownTag { tag: 7, node: 3, offset: 64 }),
        };
        let s = nested.to_string();
        assert!(s.contains("tree 2") && s.contains("tag 7"), "{s}");
        assert!(std::error::Error::source(&nested).is_some());
    }

    #[test]
    fn string_conversion_keeps_legacy_callers_alive() {
        let msg: String = ModelDecodeError::BadMagic { expected: *b"MSDT", found: *b"nope" }.into();
        assert!(msg.contains("MSDT"), "{msg}");
    }
}

//! Error handling for the pipelined executor.
//!
//! The executor shares the workspace-wide [`sketch_core::Error`]: a shard's
//! sketch application, a dense kernel failure, a device death, and a
//! sketch/operand dimension mismatch all surface through the one type (with the
//! operator name and operand shape attached to dimension mismatches).

/// The executor's error type: an alias for the workspace-wide error.
pub use sketch_core::Error as DistError;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = DistError::dimension_mismatch("CountSketch (Alg 2)", 10, 9, "block-row 9x4");
        let msg = e.to_string();
        assert!(msg.contains("10") && msg.contains('9'));
        assert!(msg.contains("block-row"));
    }
}

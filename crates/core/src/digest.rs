//! Canonical config-digest representations.
//!
//! The FNV-1a run digest ([`pulsar_obs::config_digest`]) identifies a run
//! configuration in manifests, checkpoints, and — since the serve daemon
//! — cross-job cache keys. Whether a request arrives through the one-shot
//! CLI or over the daemon socket, the *same configuration must hash to
//! the same digest*, or the whole-result cache could never hit and the
//! "bit-identical to the one-shot CLI" guarantee would be unverifiable.
//! These helpers, with [`Plan::study_digest_repr`](crate::Plan) for
//! studies, are therefore the single source of the digest input strings;
//! the CLI and `pulsar-serve` both call them.

/// The digest representation of a `pulsar campaign` run: the site stride
/// and the full netlist text. Byte-compatible with the CLI's historical
/// string.
pub fn campaign_digest_repr(stride: usize, netlist_text: &str) -> String {
    format!("stride={stride}\n{netlist_text}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_repr_is_stable() {
        assert_eq!(campaign_digest_repr(2, "netlist"), "stride=2\nnetlist");
    }
}

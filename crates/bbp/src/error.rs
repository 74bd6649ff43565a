//! Protocol errors.

/// Errors surfaced by the BillBoard Protocol API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BbpError {
    /// The payload exceeds the data partition (minus allocator slack).
    MessageTooLarge {
        /// Requested payload length in bytes.
        len: usize,
        /// Largest payload this configuration can carry.
        max: usize,
    },
    /// A destination rank is out of range or is the sender itself.
    BadDestination {
        /// The offending rank.
        dst: usize,
    },
    /// An empty multicast target set.
    NoTargets,
    /// Reliable mode: a message's checksum kept failing. On the receive
    /// side, a message from `peer` exhausted its verification retries
    /// without ever passing the CRC; on the send side, the receiver kept
    /// NACKing every retransmission.
    Corrupt {
        /// The peer on the other end of the corrupted transfer.
        peer: usize,
    },
    /// Reliable mode: the operation's retry/timeout budget ran out with
    /// the peer still in the ring. For a send, `attempts` counts the
    /// transmissions made (initial + retries); a timed-out receive
    /// reports 0.
    Timeout {
        /// The peer being waited on (for `recv_any`, the lowest-ranked
        /// candidate source).
        peer: usize,
        /// Transmissions attempted before giving up.
        attempts: u32,
    },
    /// Reliable mode: the retry budget ran out and the peer's NIC is
    /// switched out of the ring (bypassed) — the only liveness signal
    /// the hardware exposes.
    PeerDown {
        /// The unreachable peer.
        peer: usize,
    },
    /// Credit flow control (fail-fast mode): the sender's credit grant
    /// toward `peer` is exhausted — every granted message is still
    /// unacknowledged, so posting another would overrun the receiver.
    NoCredit {
        /// The peer whose grant is exhausted.
        peer: usize,
    },
    /// Quorum-enforced membership: this node's ring segment no longer
    /// reaches a strict majority of the seed membership, so it is frozen
    /// at its last committed epoch — no sends, no view changes — until
    /// the partition heals and the majority readmits it.
    Partitioned {
        /// The committed epoch this node froze at.
        epoch: u32,
    },
}

impl BbpError {
    /// True when the error is back-pressure rather than a fault: a
    /// fail-fast credit refusal ([`BbpError::NoCredit`]) the caller opted
    /// into and is expected to shed or retry. Every other variant reports
    /// something the protocol could not do.
    pub fn is_backpressure(&self) -> bool {
        matches!(self, BbpError::NoCredit { .. })
    }
}

impl std::fmt::Display for BbpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BbpError::MessageTooLarge { len, max } => {
                write!(
                    f,
                    "message of {len} bytes exceeds the {max}-byte partition limit"
                )
            }
            BbpError::BadDestination { dst } => write!(f, "bad destination rank {dst}"),
            BbpError::NoTargets => write!(f, "multicast requires at least one target"),
            BbpError::Corrupt { peer } => {
                write!(f, "transfer with rank {peer} failed checksum verification")
            }
            BbpError::Timeout { peer, attempts } => {
                write!(
                    f,
                    "no response from rank {peer} after {attempts} transmission(s)"
                )
            }
            BbpError::PeerDown { peer } => {
                write!(f, "rank {peer} is out of the ring (NIC bypassed)")
            }
            BbpError::NoCredit { peer } => {
                write!(f, "send credit grant toward rank {peer} is exhausted")
            }
            BbpError::Partitioned { epoch } => {
                write!(
                    f,
                    "node is cut off from the quorum, frozen at epoch {epoch}"
                )
            }
        }
    }
}

impl std::error::Error for BbpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = BbpError::MessageTooLarge { len: 10, max: 4 };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains('4'));
        assert!(BbpError::BadDestination { dst: 9 }
            .to_string()
            .contains('9'));
        assert!(BbpError::NoTargets.to_string().contains("target"));
        assert!(BbpError::NoCredit { peer: 3 }.to_string().contains('3'));
        assert!(BbpError::Partitioned { epoch: 7 }.to_string().contains('7'));
    }

    #[test]
    fn only_no_credit_is_backpressure() {
        assert!(BbpError::NoCredit { peer: 1 }.is_backpressure());
        for e in [
            BbpError::MessageTooLarge { len: 10, max: 4 },
            BbpError::BadDestination { dst: 9 },
            BbpError::NoTargets,
            BbpError::Corrupt { peer: 1 },
            BbpError::Timeout {
                peer: 1,
                attempts: 3,
            },
            BbpError::PeerDown { peer: 1 },
            BbpError::Partitioned { epoch: 2 },
        ] {
            assert!(!e.is_backpressure(), "{e:?}");
        }
    }
}

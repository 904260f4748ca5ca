//! Routed protocols on blackboard drivers.
//!
//! [`Embedded`] simulates a routed protocol *on the blackboard*: every
//! message is broadcast with a small self-describing link header, so
//! every blackboard execution driver (serial runner, turn engine, fabric
//! in-process transport, mux daemon) can run a
//! star or point-to-point protocol without knowing anything about
//! topologies. The embedding preserves the RNG stream exactly — headers
//! cost bits, never random draws — so a routed protocol produces the
//! same link payloads whether driven natively by
//! [`run_routed`](crate::routed::run_routed) or through a blackboard
//! driver (the driver-equivalence tests in `bci-mux` pin this).
//!
//! Note the model caveat: broadcasting the headers makes every link
//! *publicly attributed* (who→who is visible to all), which matches the
//! routed engine's public schedule metadata, but the message *payloads*
//! also become publicly readable. The embedding is therefore a
//! simulation harness for cost accounting and driver transport — not a
//! privacy-preserving implementation of message passing.

use bci_blackboard::board::Board;
use bci_blackboard::protocol::Protocol;
use bci_blackboard::PlayerId;
use bci_encoding::bitio::BitVec;
use rand::RngCore;

use crate::model::Link;
use crate::routed::{RoutedBoard, RoutedProtocol};

/// Bits needed to address one of `players` endpoints.
pub(crate) fn addr_bits(players: usize) -> usize {
    if players <= 1 {
        0
    } else {
        (usize::BITS - (players - 1).leading_zeros()) as usize
    }
}

/// A routed protocol embedded in the blackboard model.
///
/// Each blackboard message carries a header — one kind bit (`0` =
/// broadcast link, `1` = directed link) and, for directed links,
/// `⌈log₂ k⌉` bits of destination, LSB-first — followed by the routed
/// payload. The sender is the blackboard speaker, so `from` needs no
/// bits. See the [module docs](self) for what the embedding preserves.
#[derive(Debug, Clone)]
pub struct Embedded<P: RoutedProtocol> {
    inner: P,
}

impl<P: RoutedProtocol> Embedded<P> {
    /// Wraps `inner` for execution on blackboard drivers.
    pub fn new(inner: P) -> Self {
        Embedded { inner }
    }

    /// The wrapped routed protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Header overhead per directed message under this embedding.
    pub fn header_bits(&self) -> usize {
        1 + addr_bits(self.inner.num_players())
    }

    /// Reconstructs the routed transcript from a blackboard transcript
    /// produced by this embedding.
    ///
    /// # Panics
    ///
    /// Panics if a message is too short for its header — a board this
    /// protocol did not produce.
    pub fn decode_board(&self, board: &Board) -> RoutedBoard {
        let width = addr_bits(self.inner.num_players());
        let mut routed = RoutedBoard::new();
        for m in board.messages() {
            let kind = m
                .bits
                .get(0)
                .expect("embedded message missing its kind bit");
            let (link, skip) = if kind {
                let mut to = 0usize;
                for i in 0..width {
                    if m.bits
                        .get(1 + i)
                        .expect("embedded message missing destination bits")
                    {
                        to |= 1 << i;
                    }
                }
                (
                    Link::Directed {
                        from: m.speaker,
                        to,
                    },
                    1 + width,
                )
            } else {
                (Link::Broadcast, 1)
            };
            let mut payload = BitVec::with_capacity(m.bits.len() - skip);
            for i in skip..m.bits.len() {
                payload.push(m.bits.get(i).expect("in range"));
            }
            routed.write(m.speaker, link, payload);
        }
        routed
    }
}

impl<P: RoutedProtocol> Protocol for Embedded<P> {
    type Input = P::Input;
    type Output = P::Output;

    fn num_players(&self) -> usize {
        self.inner.num_players()
    }

    fn next_speaker(&self, board: &Board) -> Option<PlayerId> {
        let routed = self.decode_board(board);
        self.inner.next_turn(&routed).map(|(speaker, _)| speaker)
    }

    fn message(
        &self,
        player: PlayerId,
        input: &Self::Input,
        board: &Board,
        rng: &mut dyn RngCore,
    ) -> BitVec {
        let routed = self.decode_board(board);
        let (speaker, link) = self
            .inner
            .next_turn(&routed)
            .expect("message requested after the routed protocol halted");
        assert_eq!(
            speaker, player,
            "blackboard grant disagrees with the routed schedule"
        );
        let players = self.inner.num_players();
        if let Err(violation) = self.inner.topology().check_link(players, speaker, link) {
            panic!("{violation}");
        }
        let payload = self.inner.message(player, input, &routed.view(player), rng);
        let width = addr_bits(players);
        let mut bits = BitVec::with_capacity(1 + width + payload.len());
        match link {
            Link::Broadcast => bits.push(false),
            Link::Directed { to, .. } => {
                bits.push(true);
                for i in 0..width {
                    bits.push(to >> i & 1 == 1);
                }
            }
        }
        bits.extend_from(&payload);
        bits
    }

    fn output(&self, board: &Board) -> Self::Output {
        self.inner.output(&self.decode_board(board))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Topology;
    use crate::routed::{run_routed, PlayerView};
    use bci_blackboard::protocol::run;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn addr_bits_is_ceil_log2() {
        assert_eq!(addr_bits(1), 0);
        assert_eq!(addr_bits(2), 1);
        assert_eq!(addr_bits(3), 2);
        assert_eq!(addr_bits(4), 2);
        assert_eq!(addr_bits(5), 3);
        assert_eq!(addr_bits(16), 4);
        assert_eq!(addr_bits(17), 5);
    }

    /// Player 1 sends a random 3-bit string to the hub; the hub echoes
    /// it back.
    struct Relay;

    impl RoutedProtocol for Relay {
        type Input = ();
        type Output = Vec<bool>;

        fn topology(&self) -> Topology {
            Topology::CoordinatorStar { hub: 0 }
        }

        fn num_players(&self) -> usize {
            3
        }

        fn next_turn(&self, board: &RoutedBoard) -> Option<(PlayerId, Link)> {
            match board.messages().len() {
                0 => Some((1, Link::Directed { from: 1, to: 0 })),
                1 => Some((0, Link::Directed { from: 0, to: 2 })),
                _ => None,
            }
        }

        fn message(
            &self,
            speaker: PlayerId,
            _input: &(),
            view: &PlayerView<'_>,
            rng: &mut dyn RngCore,
        ) -> BitVec {
            if speaker == 1 {
                let r = rng.next_u32();
                BitVec::from_bools(&[r & 1 == 1, r & 2 == 2, r & 4 == 4])
            } else {
                view.messages()[0].bits.clone()
            }
        }

        fn output(&self, board: &RoutedBoard) -> Vec<bool> {
            board.messages().last().unwrap().bits.iter().collect()
        }
    }

    #[test]
    fn embedding_round_trips_the_routed_transcript() {
        let rng = ChaCha8Rng::seed_from_u64(9);
        let native = run_routed(&Relay, &[(), (), ()], &rng);

        let embedded = Embedded::new(Relay);
        let mut driver_rng = ChaCha8Rng::seed_from_u64(9);
        let exec = run(&embedded, &[(), (), ()], &mut driver_rng);

        // Decoding the blackboard transcript recovers the routed one,
        // byte for byte — the RNG stream is untouched by the headers.
        let decoded = embedded.decode_board(&exec.board);
        assert_eq!(decoded, native.board);
        assert_eq!(decoded.to_bytes(), native.board.to_bytes());
        assert_eq!(exec.output, native.output);

        // The blackboard cost is the routed cost plus one header per
        // directed message.
        assert_eq!(
            exec.bits_written,
            native.board.total_bits() + 2 * embedded.header_bits()
        );
    }
}

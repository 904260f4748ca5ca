//! The shared blackboard: an append-only sequence of attributed messages.

use bci_encoding::bitio::BitVec;
use bci_encoding::wire::Wire;
use std::fmt;

use crate::PlayerId;

/// One message written on the board: who wrote it and the bits written.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Message {
    /// The player who wrote this message.
    pub speaker: PlayerId,
    /// The message payload.
    pub bits: BitVec,
}

/// The blackboard all players can read for free.
///
/// Append-only: protocols can only [`write`](Board::write), never erase. The
/// board also serves as the protocol *transcript* — equality and hashing are
/// over the full attributed message sequence.
///
/// # Example
///
/// ```
/// use bci_blackboard::board::Board;
/// use bci_encoding::bitio::BitVec;
///
/// let mut board = Board::new();
/// board.write(2, BitVec::from_bools(&[true, false]));
/// board.write(0, BitVec::from_bools(&[true]));
/// assert_eq!(board.total_bits(), 3);
/// assert_eq!(board.messages().len(), 2);
/// assert_eq!(board.messages()[0].speaker, 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Board {
    messages: Vec<Message>,
    total_bits: usize,
}

impl Board {
    /// Creates an empty board.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a message from `speaker`.
    pub fn write(&mut self, speaker: PlayerId, bits: BitVec) {
        self.total_bits += bits.len();
        self.messages.push(Message { speaker, bits });
    }

    /// All messages in writing order.
    pub fn messages(&self) -> &[Message] {
        &self.messages
    }

    /// Total number of bits written — the communication cost so far.
    pub fn total_bits(&self) -> usize {
        self.total_bits
    }

    /// Serializes the board to a self-describing byte format (for shipping
    /// transcripts between processes or persisting experiment artifacts).
    ///
    /// Layout: `u32` message count, then per message `u32` speaker, `u32`
    /// bit length, and the payload bits packed LSB-first into bytes. All
    /// integers little-endian.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.total_bits / 8 + 8 * self.messages.len());
        (self.messages.len() as u32).encode(&mut out);
        for m in &self.messages {
            (m.speaker as u32).encode(&mut out);
            m.bits.encode(&mut out);
        }
        out
    }

    /// Parses a board serialized by [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns [`ParseBoardError`] on truncated or malformed input
    /// (including trailing bytes).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ParseBoardError> {
        let mut input = bytes;
        let count = u32::decode(&mut input).map_err(|_| ParseBoardError)?;
        let mut board = Board::new();
        for _ in 0..count {
            let speaker = u32::decode(&mut input).map_err(|_| ParseBoardError)?;
            let bits = BitVec::decode(&mut input).map_err(|_| ParseBoardError)?;
            board.write(speaker as PlayerId, bits);
        }
        if !input.is_empty() {
            return Err(ParseBoardError);
        }
        Ok(board)
    }

    /// A compact hashable key identifying this transcript.
    ///
    /// Two boards have equal keys iff they are equal as attributed message
    /// sequences. Useful with
    /// [`FreqTable`](bci_info::estimate::FreqTable).
    pub fn transcript_key(&self) -> String {
        let mut key = String::with_capacity(self.total_bits + 4 * self.messages.len());
        for m in &self.messages {
            key.push_str(&m.speaker.to_string());
            key.push(':');
            for b in m.bits.iter() {
                key.push(if b { '1' } else { '0' });
            }
            key.push(';');
        }
        key
    }
}

/// Error returned by [`Board::from_bytes`] on malformed input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseBoardError;

impl fmt::Display for ParseBoardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "truncated or malformed board bytes")
    }
}

impl std::error::Error for ParseBoardError {}

impl fmt::Display for Board {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.messages.is_empty() {
            return write!(f, "(empty board)");
        }
        for (i, m) in self.messages.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "P{}→{}", m.speaker, m.bits)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_board() {
        let b = Board::new();
        assert_eq!(b.total_bits(), 0);
        assert!(b.messages().is_empty());
        assert_eq!(b.to_string(), "(empty board)");
        assert_eq!(b.transcript_key(), "");
    }

    #[test]
    fn write_accumulates_bits() {
        let mut b = Board::new();
        b.write(0, BitVec::from_bools(&[true]));
        b.write(1, BitVec::from_bools(&[false, false, true]));
        b.write(0, BitVec::new()); // zero-bit message is legal
        assert_eq!(b.total_bits(), 4);
        assert_eq!(b.messages().len(), 3);
    }

    #[test]
    fn transcript_key_distinguishes_attribution() {
        let mut a = Board::new();
        a.write(0, BitVec::from_bools(&[true]));
        let mut b = Board::new();
        b.write(1, BitVec::from_bools(&[true]));
        assert_ne!(a.transcript_key(), b.transcript_key());
        assert_ne!(a, b);
    }

    #[test]
    fn transcript_key_distinguishes_message_boundaries() {
        // "0:1;0:1;" vs "0:11;" — same flat bits, different transcripts.
        let mut a = Board::new();
        a.write(0, BitVec::from_bools(&[true]));
        a.write(0, BitVec::from_bools(&[true]));
        let mut b = Board::new();
        b.write(0, BitVec::from_bools(&[true, true]));
        assert_ne!(a.transcript_key(), b.transcript_key());
    }

    #[test]
    fn bytes_round_trip() {
        let mut b = Board::new();
        b.write(3, BitVec::from_bools(&[true, false, true]));
        b.write(0, BitVec::new());
        b.write(7, BitVec::from_bools(&[false; 17])); // crosses byte bounds
        let bytes = b.to_bytes();
        assert_eq!(Board::from_bytes(&bytes), Ok(b));
    }

    #[test]
    fn empty_board_round_trips() {
        let b = Board::new();
        assert_eq!(Board::from_bytes(&b.to_bytes()), Ok(b));
    }

    #[test]
    fn malformed_bytes_are_rejected() {
        assert_eq!(Board::from_bytes(&[1, 2]), Err(ParseBoardError)); // short header
                                                                      // Claims one message but no body.
        assert_eq!(Board::from_bytes(&1u32.to_le_bytes()), Err(ParseBoardError));
        // Trailing garbage.
        let mut b = Board::new();
        b.write(0, BitVec::from_bools(&[true]));
        let mut bytes = b.to_bytes();
        bytes.push(0xFF);
        assert_eq!(Board::from_bytes(&bytes), Err(ParseBoardError));
        // Error type displays.
        assert!(ParseBoardError.to_string().contains("malformed"));
    }

    #[test]
    fn display_shows_speakers() {
        let mut b = Board::new();
        b.write(3, BitVec::from_bools(&[true, false]));
        assert_eq!(b.to_string(), "P3→10");
    }
}

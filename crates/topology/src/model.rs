//! The communication models: who may carry a message, and who sees it.
//!
//! The paper's shared-blackboard model is one point in a space of
//! communication topologies. PAPERS.md names the natural siblings —
//! Braverman–Ellen–Oshman–Pitassi–Vaikuntanathan's *message passing*
//! model (a coordinator star) and Gronemeier's number-in-hand bounds —
//! where DISJ costs `Θ(nk)` instead of the broadcast `Θ(n log k + k)`.
//! This module captures the difference in two tiny types:
//!
//! * [`Link`] — the channel one message travels on: the shared broadcast
//!   board, or a directed player-to-player edge.
//! * [`Topology`] — which links exist: [`Topology::Blackboard`] (broadcast
//!   only), [`Topology::CoordinatorStar`] (every edge touches the hub), or
//!   [`Topology::PointToPoint`] (any directed edge).
//!
//! Visibility is a property of the *link*, not the topology: a broadcast
//! message is visible to every player, a directed message only to its two
//! endpoints. The topology just restricts which links a protocol may use:
//! [`Topology::check_link`] is the one link rule, enforced on every grant
//! of the routed engine (`crate::routed`) and every message of the
//! blackboard embedding (`crate::embed`).

use bci_blackboard::engine::ProtocolViolation;
use bci_blackboard::PlayerId;
use std::fmt;

/// The channel one message travels on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Link {
    /// The shared blackboard: everyone reads the message for free.
    Broadcast,
    /// A directed edge: only `from` and `to` ever see the message.
    Directed {
        /// The sending endpoint (must be the speaker).
        from: PlayerId,
        /// The receiving endpoint.
        to: PlayerId,
    },
}

impl Link {
    /// Whether `player` sees a message sent on this link.
    pub fn visible_to(&self, player: PlayerId) -> bool {
        match *self {
            Link::Broadcast => true,
            Link::Directed { from, to } => player == from || player == to,
        }
    }

    /// Both endpoints in range and, for directed links, distinct.
    pub fn well_formed(&self, players: usize) -> bool {
        match *self {
            Link::Broadcast => true,
            Link::Directed { from, to } => from < players && to < players && from != to,
        }
    }
}

impl fmt::Display for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Link::Broadcast => write!(f, "broadcast"),
            Link::Directed { from, to } => write!(f, "{from}->{to}"),
        }
    }
}

/// A communication topology: the set of links protocols may write on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// The paper's model: one shared board, every message broadcast.
    Blackboard,
    /// The BEOPV message-passing model: `k` players plus a designated
    /// hub (coordinator); every message travels on an edge touching the
    /// hub. The hub is one of the `k` players (it holds an input too).
    CoordinatorStar {
        /// The coordinator player.
        hub: PlayerId,
    },
    /// Unrestricted message passing: any directed player-to-player edge.
    PointToPoint,
}

impl Topology {
    /// The CLI-facing name (`--topology <name>`).
    pub fn name(&self) -> &'static str {
        match self {
            Topology::Blackboard => "blackboard",
            Topology::CoordinatorStar { .. } => "star",
            Topology::PointToPoint => "p2p",
        }
    }

    /// Parses a CLI-facing name. `"star"` places the hub at player 0.
    pub fn parse(name: &str) -> Option<Topology> {
        match name {
            "blackboard" => Some(Topology::Blackboard),
            "star" => Some(Topology::CoordinatorStar { hub: 0 }),
            "p2p" => Some(Topology::PointToPoint),
            _ => None,
        }
    }

    /// Whether a (well-formed) link exists under this topology.
    pub fn allows(&self, link: &Link) -> bool {
        match (self, link) {
            (Topology::Blackboard, Link::Broadcast) => true,
            (Topology::Blackboard, Link::Directed { .. }) => false,
            (Topology::CoordinatorStar { hub }, Link::Directed { from, to }) => {
                from == hub || to == hub
            }
            (Topology::PointToPoint, Link::Directed { .. }) => true,
            // Message-passing models have no shared board.
            (Topology::CoordinatorStar { .. } | Topology::PointToPoint, Link::Broadcast) => false,
        }
    }

    /// The link rule: `speaker` may write on `link` in a `players`-player
    /// protocol under this topology iff the link is
    /// [`well_formed`](Link::well_formed), a directed link starts at the
    /// speaker, and the topology [`allows`](Self::allows) it.
    ///
    /// # Errors
    ///
    /// [`ProtocolViolation::IllegalLink`] naming the first rule broken, in
    /// that order.
    pub fn check_link(
        &self,
        players: usize,
        speaker: PlayerId,
        link: Link,
    ) -> Result<(), ProtocolViolation> {
        let reason = match link {
            _ if !link.well_formed(players) => {
                format!("malformed link {link} for {players} players")
            }
            Link::Directed { from, .. } if from != speaker => {
                format!("player {speaker} granted foreign link {link}")
            }
            _ if !self.allows(&link) => format!(
                "player {speaker} granted link {link}, not allowed under the {} topology",
                self.name()
            ),
            _ => return Ok(()),
        };
        Err(ProtocolViolation::IllegalLink { speaker, reason })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visibility_follows_the_link() {
        assert!(Link::Broadcast.visible_to(7));
        let edge = Link::Directed { from: 1, to: 3 };
        assert!(edge.visible_to(1));
        assert!(edge.visible_to(3));
        assert!(!edge.visible_to(0));
        assert!(!edge.visible_to(2));
    }

    #[test]
    fn well_formedness_rejects_loops_and_out_of_range_endpoints() {
        assert!(Link::Broadcast.well_formed(1));
        assert!(Link::Directed { from: 0, to: 3 }.well_formed(4));
        assert!(!Link::Directed { from: 0, to: 4 }.well_formed(4));
        assert!(!Link::Directed { from: 5, to: 0 }.well_formed(4));
        assert!(!Link::Directed { from: 2, to: 2 }.well_formed(4));
    }

    #[test]
    fn topologies_admit_exactly_their_links() {
        let bb = Topology::Blackboard;
        let star = Topology::CoordinatorStar { hub: 0 };
        let p2p = Topology::PointToPoint;
        let up = Link::Directed { from: 2, to: 0 };
        let down = Link::Directed { from: 0, to: 2 };
        let side = Link::Directed { from: 1, to: 2 };

        assert!(bb.allows(&Link::Broadcast));
        assert!(!bb.allows(&up));

        assert!(!star.allows(&Link::Broadcast));
        assert!(star.allows(&up));
        assert!(star.allows(&down));
        assert!(!star.allows(&side));

        assert!(!p2p.allows(&Link::Broadcast));
        assert!(p2p.allows(&up));
        assert!(p2p.allows(&side));
    }

    #[test]
    fn the_link_rule_names_the_first_broken_rule() {
        let star = Topology::CoordinatorStar { hub: 0 };
        let reason = |speaker, link| star.check_link(3, speaker, link).unwrap_err().to_string();
        // Malformed beats foreign beats forbidden.
        assert_eq!(
            reason(1, Link::Directed { from: 2, to: 9 }),
            "malformed link 2->9 for 3 players"
        );
        assert_eq!(
            reason(1, Link::Directed { from: 2, to: 1 }),
            "player 1 granted foreign link 2->1"
        );
        assert_eq!(
            reason(1, Link::Broadcast),
            "player 1 granted link broadcast, not allowed under the star topology"
        );
        assert_eq!(
            star.check_link(3, 1, Link::Directed { from: 1, to: 0 }),
            Ok(())
        );
        assert_eq!(
            Topology::Blackboard.check_link(3, 2, Link::Broadcast),
            Ok(())
        );
    }

    #[test]
    fn names_round_trip_through_parse() {
        for t in [
            Topology::Blackboard,
            Topology::CoordinatorStar { hub: 0 },
            Topology::PointToPoint,
        ] {
            assert_eq!(Topology::parse(t.name()), Some(t));
        }
        assert_eq!(Topology::parse("mesh"), None);
    }

    #[test]
    fn links_render_compactly() {
        assert_eq!(Link::Broadcast.to_string(), "broadcast");
        assert_eq!(Link::Directed { from: 2, to: 0 }.to_string(), "2->0");
    }
}

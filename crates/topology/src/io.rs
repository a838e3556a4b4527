//! Plain-text topology interchange format.
//!
//! ```text
//! # comments and blank lines are ignored
//! nodes 5
//! channel 0 1 30000000000       # u v capacity_in_drops
//! channel 1 2 30000000000
//! ```
//!
//! The format is line-oriented so external tools (or the SpeedyMurmurs
//! artifact's converters) can produce it with a one-line awk script.

use crate::graph::{Topology, TopologyBuilder};
use spider_types::{Amount, NodeId, Result, SpiderError};

/// Serializes a topology to the text format.
pub fn to_text(t: &Topology) -> String {
    let mut out = String::new();
    out.push_str("# spider topology v1\n");
    out.push_str(&format!("nodes {}\n", t.node_count()));
    for (_, c) in t.channels() {
        out.push_str(&format!(
            "channel {} {} {}\n",
            c.u.index(),
            c.v.index(),
            c.capacity.drops()
        ));
    }
    out
}

/// Parses a topology from the text format.
pub fn from_text(text: &str) -> Result<Topology> {
    let mut builder: Option<TopologyBuilder> = None;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let keyword = parts.next().expect("non-empty line has a token");
        let err = |msg: &str| SpiderError::Parse(format!("line {}: {msg}", lineno + 1));
        match keyword {
            "nodes" => {
                if builder.is_some() {
                    return Err(err("duplicate `nodes` declaration"));
                }
                let n: u64 = parts
                    .next()
                    .ok_or_else(|| err("missing node count"))?
                    .parse()
                    .map_err(|_| err("invalid node count"))?;
                if parts.next().is_some() {
                    return Err(err("trailing tokens after node count"));
                }
                // Node ids are `u32`: a larger graph cannot be addressed,
                // and its adjacency table must not be allocated.
                let n = u32::try_from(n).map_err(|_| err("node count out of range"))?;
                builder = Some(TopologyBuilder::new(n as usize));
            }
            "channel" => {
                let b = builder
                    .as_mut()
                    .ok_or_else(|| err("`channel` before `nodes`"))?;
                let mut field = |name: &str| -> Result<u64> {
                    parts
                        .next()
                        .ok_or_else(|| err(&format!("missing {name}")))?
                        .parse::<u64>()
                        .map_err(|_| err(&format!("invalid {name}")))
                };
                let u = field("endpoint u")?;
                let v = field("endpoint v")?;
                let cap = field("capacity")?;
                if parts.next().is_some() {
                    return Err(err("trailing tokens after channel"));
                }
                // Channel balances are read as signed amounts.
                if cap > i64::MAX as u64 {
                    return Err(err("capacity exceeds i64::MAX drops"));
                }
                // Range-check before NodeId::from_index, which panics on
                // indices beyond u32 (malformed input must error instead).
                let node = |x: u64, name: &str| -> Result<NodeId> {
                    u32::try_from(x)
                        .map(NodeId)
                        .map_err(|_| err(&format!("{name} out of range")))
                };
                b.channel(
                    node(u, "endpoint u")?,
                    node(v, "endpoint v")?,
                    Amount::from_drops(cap),
                )
                .map_err(|e| err(&e.to_string()))?;
            }
            other => return Err(err(&format!("unknown keyword `{other}`"))),
        }
    }
    Ok(builder
        .ok_or_else(|| SpiderError::Parse("no `nodes` declaration".into()))?
        .build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn round_trip() {
        let t = gen::isp_topology(Amount::from_xrp(30_000));
        let text = to_text(&t);
        let back = from_text(&text).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "\n# hello\nnodes 3 # three nodes\n\nchannel 0 1 5\nchannel 1 2 7 # done\n";
        let t = from_text(text).unwrap();
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.channel_count(), 2);
        assert_eq!(
            t.channel(spider_types::ChannelId(0)).capacity,
            Amount::from_drops(5)
        );
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_text("channel 0 1 5\n").is_err()); // channel before nodes
        assert!(from_text("nodes 2\nnodes 3\n").is_err()); // duplicate nodes
        assert!(from_text("nodes x\n").is_err());
        assert!(from_text("nodes 2\nchannel 0 1\n").is_err()); // missing capacity
        assert!(from_text("nodes 2\nchannel 0 5 1\n").is_err()); // unknown node
        assert!(from_text("nodes 2\nchannel 0 0 1\n").is_err()); // self-loop
        assert!(from_text("nodes 2\nfrobnicate\n").is_err()); // unknown keyword
        assert!(from_text("").is_err()); // empty
        assert!(from_text("nodes 2\nchannel 0 1 1 9\n").is_err()); // trailing token
        assert!(from_text("nodes 2\nchannel 0 1 9223372036854775808\n").is_err()); // > i64::MAX

        // Counts no `u32` node id can address: an error, not an allocation.
        for text in ["nodes 18446744073709551615", "nodes 4294967297"] {
            let e = from_text(text).unwrap_err();
            assert!(e.to_string().contains("line 1"), "{e}");
        }
    }

    #[test]
    fn error_mentions_line_number() {
        let e = from_text("nodes 2\nchannel 0 1 bad\n").unwrap_err();
        assert!(e.to_string().contains("line 2"), "{e}");
    }

    /// Property-style round-trip: every topology family, over many seeds,
    /// survives `to_text` → `from_text` unchanged.
    #[test]
    fn round_trip_random_topologies() {
        let cap = Amount::from_xrp(1_000);
        for seed in 0..24u64 {
            let mut rng = spider_types::DetRng::new(seed);
            let topologies = [
                gen::erdos_renyi(12, 0.3, cap, &mut rng),
                gen::barabasi_albert(20, 2, cap, &mut rng),
                gen::watts_strogatz(16, 4, 0.2, cap, &mut rng),
                gen::ripple_like(30, cap, &mut rng),
            ];
            for t in topologies {
                let text = to_text(&t);
                let back = from_text(&text).expect("generated topology parses");
                assert_eq!(t, back, "seed {seed}");
                // Second round trip is a fixpoint.
                assert_eq!(to_text(&back), text);
            }
        }
    }

    /// Round trip preserves extreme but valid capacities to the drop.
    #[test]
    fn round_trip_extreme_capacities() {
        let mut b = crate::Topology::builder(3);
        b.channel(NodeId(0), NodeId(1), Amount::from_drops(1))
            .unwrap();
        b.channel(NodeId(1), NodeId(2), Amount::from_drops(i64::MAX as u64))
            .unwrap();
        let t = b.build();
        let back = from_text(&to_text(&t)).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn rejects_duplicate_nodes_even_with_same_count() {
        assert!(from_text("nodes 3\nnodes 3\n").is_err());
    }

    #[test]
    fn rejects_trailing_tokens_on_nodes_line() {
        assert!(from_text("nodes 2 7\n").is_err());
        // A comment after the count is fine, though.
        assert!(from_text("nodes 2 # two\nchannel 0 1 5\n").is_ok());
    }

    #[test]
    fn rejects_out_of_range_channel_endpoints() {
        assert!(from_text("nodes 3\nchannel 0 3 1\n").is_err()); // v == n
        assert!(from_text("nodes 3\nchannel 7 1 1\n").is_err()); // u > n
        assert!(from_text("nodes 3\nchannel 0 18446744073709551615 1\n").is_err());
    }

    #[test]
    fn rejects_duplicate_and_reversed_duplicate_channels() {
        assert!(from_text("nodes 3\nchannel 0 1 5\nchannel 0 1 9\n").is_err());
        assert!(from_text("nodes 3\nchannel 0 1 5\nchannel 1 0 9\n").is_err());
    }

    #[test]
    fn rejects_non_numeric_and_signed_fields() {
        assert!(from_text("nodes -2\n").is_err());
        assert!(from_text("nodes 2\nchannel 0 1 -5\n").is_err());
        assert!(from_text("nodes 2\nchannel 0 1 5.5\n").is_err());
        assert!(from_text("nodes 2\nchannel zero 1 5\n").is_err());
        // Capacity beyond u64::MAX overflows the field parser.
        assert!(from_text("nodes 2\nchannel 0 1 18446744073709551616\n").is_err());
    }

    #[test]
    fn comment_only_document_has_no_nodes() {
        assert!(from_text("# nothing here\n\n# still nothing\n").is_err());
    }

    #[test]
    fn errors_carry_the_failing_line_for_malformed_channels() {
        let e = from_text("nodes 3\nchannel 0 1 5\nchannel 0 1 5\n").unwrap_err();
        assert!(e.to_string().contains("line 3"), "{e}");
        let e = from_text("# c\n\nnodes 2\nchannel 0 1\n").unwrap_err();
        assert!(e.to_string().contains("line 4"), "{e}");
    }
}

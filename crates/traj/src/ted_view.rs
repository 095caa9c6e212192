//! The (improved) TED representation of an instance.
//!
//! TED (§2.2) represents a network-constrained trajectory as a start vertex
//! `SV`, an edge sequence `E` of outgoing-edge numbers where an edge
//! carrying `r > 1` mapped locations is followed by `r − 1` zeros, a
//! time-flag bit-string `T'` with one bit per `E` entry (1 ⇔ the entry
//! carries a mapped location), and the relative-distance sequence `D`.
//!
//! [`TedView::from_instance`] derives this view from an [`Instance`];
//! [`TedView::to_instance`] inverts it given the network — the pair is the
//! lossless core that the compressors round-trip through.

use utcq_network::{RoadNetwork, VertexId};

use crate::model::{Instance, PathPosition};

/// The TED-model view of one instance.
#[derive(Debug, Clone, PartialEq)]
pub struct TedView {
    /// Start vertex of the first edge.
    pub sv: VertexId,
    /// Edge sequence `E`: outgoing-edge numbers with `0` repeat markers.
    pub entries: Vec<u32>,
    /// Time flags `T'`: one bit per entry, including the first and last
    /// bits (which the *improved* representation later omits because they
    /// are always 1).
    pub flags: Vec<bool>,
    /// Relative distances `D`, one per set flag, in time order.
    pub rds: Vec<f64>,
    /// Instance probability.
    pub prob: f64,
}

/// Errors turning a TED view back into an instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TedViewError {
    /// An outgoing-edge number did not resolve at the current vertex.
    BadEdgeNumber {
        /// Index of the offending entry.
        entry: usize,
        /// The outgoing-edge number that failed to resolve.
        number: u32,
    },
    /// A `0` repeat marker appeared before any edge.
    LeadingZero,
    /// `flags` and `entries` lengths differ.
    LengthMismatch,
    /// A repeat marker with a cleared flag, or too few/many distances.
    Inconsistent(&'static str),
}

impl std::fmt::Display for TedViewError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TedViewError::BadEdgeNumber { entry, number } => {
                write!(
                    f,
                    "entry {entry}: outgoing edge number {number} does not resolve"
                )
            }
            TedViewError::LeadingZero => write!(f, "edge sequence starts with a repeat marker"),
            TedViewError::LengthMismatch => write!(f, "flags and entries lengths differ"),
            TedViewError::Inconsistent(msg) => write!(f, "inconsistent view: {msg}"),
        }
    }
}

impl std::error::Error for TedViewError {}

impl TedView {
    /// Derives the TED view of an instance.
    pub fn from_instance(net: &RoadNetwork, inst: &Instance) -> Self {
        let mut entries = Vec::with_capacity(inst.path.len() + inst.positions.len());
        let mut flags = Vec::with_capacity(entries.capacity());
        let mut pos_iter = inst.positions.iter().peekable();
        for (i, &edge) in inst.path.iter().enumerate() {
            entries.push(net.edge_number(edge));
            let mut r = 0usize;
            while pos_iter.peek().is_some_and(|p| p.path_idx as usize == i) {
                pos_iter.next();
                r += 1;
            }
            flags.push(r >= 1);
            for _ in 1..r {
                entries.push(0);
                flags.push(true);
            }
        }
        TedView {
            sv: net.edge_from(inst.path[0]),
            entries,
            flags,
            rds: inst.rds(),
            prob: inst.prob,
        }
    }

    /// Reconstructs the instance from the view.
    pub fn to_instance(&self, net: &RoadNetwork) -> Result<Instance, TedViewError> {
        if self.entries.len() != self.flags.len() {
            return Err(TedViewError::LengthMismatch);
        }
        // Sized exactly: decoded instances are what stores cache and
        // what decompression returns by the million.
        let mut path = Vec::with_capacity(self.entries.iter().filter(|&&no| no != 0).count());
        let mut positions = Vec::with_capacity(self.location_count());
        let mut cur = self.sv;
        let mut rd_iter = self.rds.iter();
        for (i, (&no, &flag)) in self.entries.iter().zip(&self.flags).enumerate() {
            if no == 0 {
                if path.is_empty() {
                    return Err(TedViewError::LeadingZero);
                }
                if !flag {
                    return Err(TedViewError::Inconsistent(
                        "repeat marker without a mapped location",
                    ));
                }
            } else {
                let edge = net
                    .edge_by_number(cur, no)
                    .ok_or(TedViewError::BadEdgeNumber {
                        entry: i,
                        number: no,
                    })?;
                path.push(edge);
                cur = net.edge_to(edge);
            }
            if flag {
                let rd = *rd_iter
                    .next()
                    .ok_or(TedViewError::Inconsistent("fewer distances than flags"))?;
                positions.push(PathPosition {
                    path_idx: (path.len() - 1) as u32,
                    rd,
                });
            }
        }
        if rd_iter.next().is_some() {
            return Err(TedViewError::Inconsistent("more distances than flags"));
        }
        Ok(Instance {
            path,
            positions,
            prob: self.prob,
        })
    }

    /// Number of mapped locations (set flags).
    pub fn location_count(&self) -> usize {
        self.flags.iter().filter(|&&b| b).count()
    }

    /// `T'` with the first and last bits omitted — the paper's *improved*
    /// representation (§4.1), valid because both are always 1.
    pub fn trimmed_flags(&self) -> &[bool] {
        if self.flags.len() <= 2 {
            &[]
        } else {
            &self.flags[1..self.flags.len() - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_fixture;

    #[test]
    fn table3_edge_sequences() {
        let fx = paper_fixture::build();
        let views: Vec<_> = fx
            .tu
            .instances
            .iter()
            .map(|i| TedView::from_instance(&fx.example.net, i))
            .collect();
        assert_eq!(views[0].entries, vec![1, 2, 1, 2, 2, 0, 4, 1, 0]);
        assert_eq!(views[1].entries, vec![1, 1, 1, 2, 2, 0, 4, 1, 0]);
        assert_eq!(views[2].entries, vec![1, 2, 1, 2, 2, 0, 4, 1, 2]);
        // All three share the start vertex v1.
        for v in &views {
            assert_eq!(v.sv, fx.example.vertex(1));
        }
    }

    #[test]
    fn table3_flags_and_distances() {
        let fx = paper_fixture::build();
        let views: Vec<_> = fx
            .tu
            .instances
            .iter()
            .map(|i| TedView::from_instance(&fx.example.net, i))
            .collect();
        // Full flags (Table 2 shows instance 1 as ⟨1,0,1,0,1,1,1,1,1⟩).
        let f = |bits: &[u8]| bits.iter().map(|&b| b == 1).collect::<Vec<_>>();
        assert_eq!(views[0].flags, f(&[1, 0, 1, 0, 1, 1, 1, 1, 1]));
        assert_eq!(views[1].flags, f(&[1, 1, 0, 0, 1, 1, 1, 1, 1]));
        assert_eq!(views[2].flags, f(&[1, 0, 1, 0, 1, 1, 1, 1, 1]));
        // Trimmed flags match Table 3 exactly.
        assert_eq!(views[0].trimmed_flags(), &f(&[0, 1, 0, 1, 1, 1, 1])[..]);
        assert_eq!(views[1].trimmed_flags(), &f(&[1, 0, 0, 1, 1, 1, 1])[..]);
        assert_eq!(views[2].trimmed_flags(), &f(&[0, 1, 0, 1, 1, 1, 1])[..]);
        // Distances of Table 3.
        assert_eq!(views[0].rds, vec![0.875, 0.25, 0.5, 0.875, 0.5, 0.0, 0.875]);
        assert_eq!(views[2].rds, vec![0.875, 0.25, 0.5, 0.875, 0.5, 0.0, 0.5]);
    }

    #[test]
    fn roundtrip_all_paper_instances() {
        let fx = paper_fixture::build();
        for inst in &fx.tu.instances {
            let view = TedView::from_instance(&fx.example.net, inst);
            let back = view.to_instance(&fx.example.net).unwrap();
            assert_eq!(&back, inst);
        }
    }

    #[test]
    fn location_count_matches_times() {
        let fx = paper_fixture::build();
        for inst in &fx.tu.instances {
            let view = TedView::from_instance(&fx.example.net, inst);
            assert_eq!(view.location_count(), fx.tu.times.len());
        }
    }

    #[test]
    fn bad_views_rejected() {
        let fx = paper_fixture::build();
        let net = &fx.example.net;
        let view = TedView::from_instance(net, &fx.tu.instances[0]);

        let mut bad = view.clone();
        bad.entries[0] = 0;
        assert_eq!(bad.to_instance(net), Err(TedViewError::LeadingZero));

        let mut bad = view.clone();
        bad.entries[1] = 7; // v2 has only 2 out-edges
        assert!(matches!(
            bad.to_instance(net),
            Err(TedViewError::BadEdgeNumber {
                entry: 1,
                number: 7
            })
        ));

        let mut bad = view.clone();
        bad.flags.pop();
        assert_eq!(bad.to_instance(net), Err(TedViewError::LengthMismatch));

        let mut bad = view.clone();
        bad.rds.pop();
        assert!(matches!(
            bad.to_instance(net),
            Err(TedViewError::Inconsistent(_))
        ));

        let mut bad = view.clone();
        bad.rds.push(0.5);
        assert!(matches!(
            bad.to_instance(net),
            Err(TedViewError::Inconsistent(_))
        ));

        let mut bad = view;
        bad.flags[5] = false; // repeat marker must carry a location
        assert!(matches!(
            bad.to_instance(net),
            Err(TedViewError::Inconsistent(_))
        ));
    }
}

//! Storage backends: the [`GraphStorage`] trait and the compact
//! [`CsrGraph`].
//!
//! The heap-resident [`Graph`] keeps one `Vec` per node — friendly to
//! append-only construction, hostile to 10⁸-edge networks (per-row
//! allocations, pointer chasing, ~50+ bytes/edge of overhead). The
//! large-network track (TATTOO; GraphVista's topology/attribute split)
//! wants the opposite: topology in a handful of packed arrays the hot
//! kernels can stream.
//!
//! [`GraphStorage`] abstracts exactly the access the large-network
//! kernels need — counts, labels, endpoints, contiguous neighbor
//! slices, and label buckets — with two implementations:
//!
//! * [`Graph`], whose adjacency rows already are contiguous slices;
//! * [`CsrGraph`], u32-packed CSR arrays (offsets + interleaved
//!   `(neighbor, edge)` targets + per-edge endpoints/labels),
//!   label-bucketed like [`crate::index::GraphIndex`], at ~30 bytes per
//!   edge.
//!
//! **Bit-identity contract.** A `CsrGraph` built from a `Graph` (or
//! from the same deterministic edge stream) preserves the *insertion
//! order* of every adjacency row. Every ported kernel walks neighbor
//! slices in row order, so truss peel, graphlet census, and sharded
//! TATTOO selection produce bit-identical output on either backend, at
//! any thread cap — the PR 4 contract extended across storage layers.
//!
//! **On-disk images.** [`CsrGraph::save_image`]/[`CsrGraph::load_image`]
//! serialize the packed arrays as a little-endian image with a
//! validated header and a trailing digest. The section layout is
//! mmap-ready (fixed-width fields, arrays at computable offsets); the
//! loader materializes packed heap arrays because this workspace
//! forbids `unsafe` (no `mmap` without it) — still ~3 GB for 10⁸ edges
//! against the heap `Graph`'s tens of GB, which is what makes the
//! `exp_scale` ceiling fit this machine.

use crate::graph::{EdgeData, EdgeId, Graph, Label, NodeId, SortedAdjacency};
use rand::splitmix64;
use std::io::{Read, Write};
use std::path::Path;
use vqi_runtime::VqiError;

/// Topology access the large-network kernels are generic over.
///
/// Implementations must present every adjacency row as a contiguous
/// `(neighbor, edge id)` slice in **edge insertion order** — the order
/// [`Graph::add_edge`] appends — because the cross-backend bit-identity
/// of the ported kernels rests on identical row iteration order.
pub trait GraphStorage: Sync {
    /// Number of nodes.
    fn node_count(&self) -> usize;
    /// Number of edges.
    fn edge_count(&self) -> usize;
    /// The label of node `v`.
    fn node_label(&self, v: NodeId) -> Label;
    /// The label of edge `e`.
    fn edge_label(&self, e: EdgeId) -> Label;
    /// The endpoints of edge `e` (orientation as inserted).
    fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId);
    /// The `(neighbor, edge id)` row of `v`, in insertion order.
    fn neighbor_slice(&self, v: NodeId) -> &[(NodeId, EdgeId)];
    /// Degree of `v`.
    #[inline]
    fn degree(&self, v: NodeId) -> usize {
        self.neighbor_slice(v).len()
    }
    /// Distinct node labels, ascending.
    fn label_classes(&self) -> Vec<Label>;
    /// Nodes carrying exactly label `l`, ascending by id (the label
    /// bucket — precomputed in [`CsrGraph`], scanned in [`Graph`]).
    fn nodes_with_label(&self, l: Label) -> Vec<NodeId>;
}

impl GraphStorage for Graph {
    #[inline]
    fn node_count(&self) -> usize {
        Graph::node_count(self)
    }
    #[inline]
    fn edge_count(&self) -> usize {
        Graph::edge_count(self)
    }
    #[inline]
    fn node_label(&self, v: NodeId) -> Label {
        Graph::node_label(self, v)
    }
    #[inline]
    fn edge_label(&self, e: EdgeId) -> Label {
        Graph::edge_label(self, e)
    }
    #[inline]
    fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        Graph::endpoints(self, e)
    }
    #[inline]
    fn neighbor_slice(&self, v: NodeId) -> &[(NodeId, EdgeId)] {
        Graph::neighbor_slice(self, v)
    }
    #[inline]
    fn degree(&self, v: NodeId) -> usize {
        Graph::degree(self, v)
    }
    fn label_classes(&self) -> Vec<Label> {
        let mut ls = self.node_label_multiset();
        ls.dedup();
        ls
    }
    fn nodes_with_label(&self, l: Label) -> Vec<NodeId> {
        // id-ascending scan == the bucket order CsrGraph precomputes
        self.nodes()
            .filter(|&v| Graph::node_label(self, v) == l)
            .collect()
    }
}

/// Builds label buckets over per-node labels: distinct labels ascending,
/// bucket offsets, and node ids grouped by label (ascending within each
/// bucket). Shared by [`CsrGraph`] and [`crate::index::GraphIndex`];
/// byte-for-byte the packing `GraphIndex::build` historically inlined.
pub(crate) fn label_buckets(node_labels: &[Label]) -> (Vec<Label>, Vec<u32>, Vec<NodeId>) {
    let mut pairs: Vec<(Label, NodeId)> = node_labels
        .iter()
        .enumerate()
        .map(|(i, &l)| (l, NodeId(i as u32)))
        .collect();
    pairs.sort_unstable_by_key(|&(l, v)| (l, v.0));
    let mut labels = Vec::new();
    let mut bucket_offsets = vec![0u32];
    let mut by_label = Vec::with_capacity(node_labels.len());
    for (l, v) in pairs {
        if labels.last() != Some(&l) {
            if !labels.is_empty() {
                bucket_offsets.push(by_label.len() as u32);
            }
            labels.push(l);
        }
        by_label.push(v);
    }
    // keep the invariant len(bucket_offsets) == len(labels) + 1 even
    // for the empty graph (otherwise the on-disk image, whose section
    // lengths are computed from the label-class count, cannot round-trip)
    if !labels.is_empty() {
        bucket_offsets.push(by_label.len() as u32);
    }
    (labels, bucket_offsets, by_label)
}

/// Compressed-sparse-row graph storage: u32-packed topology arrays plus
/// label buckets. Rows preserve edge insertion order (see
/// [`GraphStorage`]); edge ids are assigned in stream/insertion order,
/// exactly like [`Graph::add_edge`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    node_labels: Vec<Label>,
    /// CSR row offsets into `nbr`, length `node_count + 1`.
    offsets: Vec<u32>,
    /// Interleaved `(neighbor, edge id)` targets, length `2 * edge_count`.
    nbr: Vec<(NodeId, EdgeId)>,
    /// Per-edge endpoints in insertion orientation.
    endpoints: Vec<(NodeId, NodeId)>,
    edge_labels: Vec<Label>,
    /// Distinct node labels, ascending.
    labels: Vec<Label>,
    /// Bucket `i` (for `labels[i]`) is `by_label[bucket_offsets[i]..bucket_offsets[i+1]]`.
    bucket_offsets: Vec<u32>,
    /// Node ids grouped by label, ascending within each bucket.
    by_label: Vec<NodeId>,
}

impl CsrGraph {
    /// Compiles a heap [`Graph`] into CSR form. Rows copy
    /// [`Graph::neighbors`] order exactly, so every ported kernel is
    /// bit-identical across the two backends.
    pub fn from_graph(g: &Graph) -> CsrGraph {
        let mut offsets = Vec::with_capacity(g.node_count() + 1);
        let mut nbr = Vec::with_capacity(2 * g.edge_count());
        offsets.push(0u32);
        for v in g.nodes() {
            nbr.extend_from_slice(g.neighbor_slice(v));
            offsets.push(nbr.len() as u32);
        }
        let node_labels: Vec<Label> = g.nodes().map(|v| g.node_label(v)).collect();
        let (labels, bucket_offsets, by_label) = label_buckets(&node_labels);
        CsrGraph {
            node_labels,
            offsets,
            nbr,
            endpoints: g.edges().map(|e| g.endpoints(e)).collect(),
            edge_labels: g.edges().map(|e| g.edge_label(e)).collect(),
            labels,
            bucket_offsets,
            by_label,
        }
    }

    /// Builds a `CsrGraph` from a deterministic edge stream **without**
    /// materializing an adjacency-list (or whole-edge-list)
    /// intermediate: `stream` is invoked twice and must yield the same
    /// edges in the same order both times (pass 1 sizes the rows, pass
    /// 2 fills them with one cursor per node).
    ///
    /// The stream contract mirrors [`Graph::add_edge`]'s accepted
    /// inputs: no self-loops, endpoints in range, no duplicate edges —
    /// violations panic, because silently dropping stream edges would
    /// desynchronize edge ids between backends.
    pub fn from_edge_stream(
        node_labels: Vec<Label>,
        mut stream: impl FnMut(&mut dyn FnMut(u32, u32, Label)),
    ) -> CsrGraph {
        let n = node_labels.len();
        // pass 1: degree count
        let mut degree = vec![0u32; n];
        let mut m = 0usize;
        stream(&mut |u, v, _l| {
            assert!(u != v, "self-loop in edge stream");
            assert!(
                (u as usize) < n && (v as usize) < n,
                "endpoint out of range"
            );
            degree[u as usize] += 1;
            degree[v as usize] += 1;
            m += 1;
        });
        assert!(2 * m <= u32::MAX as usize, "graph too large for u32 CSR");
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut acc = 0u32;
        for &d in &degree {
            acc += d;
            offsets.push(acc);
        }
        // pass 2: cursor fill, reproducing per-row insertion order
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut nbr = vec![(NodeId(0), EdgeId(0)); 2 * m];
        let mut endpoints = Vec::with_capacity(m);
        let mut edge_labels = Vec::with_capacity(m);
        let mut k = 0u32;
        stream(&mut |u, v, l| {
            let e = EdgeId(k);
            nbr[cursor[u as usize] as usize] = (NodeId(v), e);
            cursor[u as usize] += 1;
            nbr[cursor[v as usize] as usize] = (NodeId(u), e);
            cursor[v as usize] += 1;
            endpoints.push((NodeId(u), NodeId(v)));
            edge_labels.push(l);
            k += 1;
        });
        assert_eq!(k as usize, m, "edge stream changed between passes");
        let (labels, bucket_offsets, by_label) = label_buckets(&node_labels);
        CsrGraph {
            node_labels,
            offsets,
            nbr,
            endpoints,
            edge_labels,
            labels,
            bucket_offsets,
            by_label,
        }
    }

    /// Builds the CSR directly from a seeded synthetic-network spec —
    /// the streaming twin of [`crate::generate::synthetic_network`],
    /// field-for-field equal to
    /// `CsrGraph::from_graph(&synthetic_network(spec))` without ever
    /// materializing the heap graph.
    pub fn from_synthetic(spec: &crate::generate::SyntheticSpec) -> CsrGraph {
        let node_labels: Vec<Label> = (0..spec.nodes)
            .map(|v| spec.node_label(NodeId(v as u32)))
            .collect();
        CsrGraph::from_edge_stream(node_labels, |f| spec.stream_edges(f))
    }

    /// Reconstructs a heap [`Graph`] with identical ids, labels, and
    /// adjacency order. Inverse of [`CsrGraph::from_graph`].
    pub fn to_graph(&self) -> Graph {
        prefix_graph_of(self, self.node_count())
    }

    /// Total bytes of the packed arrays (the `mem.*` gauge figure).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.node_labels.len() * size_of::<Label>()
            + self.offsets.len() * size_of::<u32>()
            + self.nbr.len() * size_of::<(NodeId, EdgeId)>()
            + self.endpoints.len() * size_of::<(NodeId, NodeId)>()
            + self.edge_labels.len() * size_of::<Label>()
            + self.labels.len() * size_of::<Label>()
            + self.bucket_offsets.len() * size_of::<u32>()
            + self.by_label.len() * size_of::<NodeId>()
    }

    /// A stable content digest: a splitmix64 fold over every array, in
    /// a fixed order. Equal digests ⇔ equal graphs (up to hash
    /// collision); used by the on-disk image as an integrity trailer
    /// and by the round-trip tests.
    pub fn digest(&self) -> u64 {
        let mut h = 0x5EED_C5A0_1234_ABCDu64;
        let mut fold = |x: u64| h = splitmix64(h ^ x);
        fold(self.node_labels.len() as u64);
        fold(self.endpoints.len() as u64);
        for &l in &self.node_labels {
            fold(l as u64);
        }
        for &o in &self.offsets {
            fold(o as u64);
        }
        for &(v, e) in &self.nbr {
            fold(((v.0 as u64) << 32) | e.0 as u64);
        }
        for &(u, v) in &self.endpoints {
            fold(((u.0 as u64) << 32) | v.0 as u64);
        }
        for &l in &self.edge_labels {
            fold(l as u64);
        }
        h
    }

    // ---- on-disk image ---------------------------------------------------

    /// Serializes the image into a byte buffer — the same `VQICSR01`
    /// layout [`CsrGraph::save_image`] writes to disk, for embedding in
    /// containers (the `vqi-serve` checkpoint format stores one encoded
    /// image per collection slot). For multi-gigabyte graphs prefer the
    /// streaming [`CsrGraph::save_image`], which never buffers the
    /// whole image.
    pub fn encode_image(&self) -> Vec<u8> {
        let total_u32 = self.node_labels.len()
            + self.offsets.len()
            + 2 * self.nbr.len()
            + 2 * self.endpoints.len()
            + self.edge_labels.len()
            + self.labels.len()
            + self.bucket_offsets.len()
            + self.by_label.len();
        let mut out = Vec::with_capacity(8 + 24 + 4 * total_u32 + 8);
        out.extend_from_slice(b"VQICSR01");
        out.extend_from_slice(&(self.node_labels.len() as u64).to_le_bytes());
        out.extend_from_slice(&(self.endpoints.len() as u64).to_le_bytes());
        out.extend_from_slice(&(self.labels.len() as u64).to_le_bytes());
        let mut push_u32s = |iter: &mut dyn Iterator<Item = u32>| {
            for x in iter {
                out.extend_from_slice(&x.to_le_bytes());
            }
        };
        push_u32s(&mut self.node_labels.iter().copied());
        push_u32s(&mut self.offsets.iter().copied());
        push_u32s(&mut self.nbr.iter().flat_map(|&(v, e)| [v.0, e.0]));
        push_u32s(&mut self.endpoints.iter().flat_map(|&(u, v)| [u.0, v.0]));
        push_u32s(&mut self.edge_labels.iter().copied());
        push_u32s(&mut self.labels.iter().copied());
        push_u32s(&mut self.bucket_offsets.iter().copied());
        push_u32s(&mut self.by_label.iter().map(|v| v.0));
        out.extend_from_slice(&self.digest().to_le_bytes());
        out
    }

    /// Writes the little-endian on-disk image. Layout: the 8-byte magic
    /// `VQICSR01`; `node_count`, `edge_count`, `label_class_count` as
    /// u64 LE; then the arrays as u32 LE in field order (`node_labels`,
    /// `offsets`, `nbr`, `endpoints`, `edge_labels`, `labels`,
    /// `bucket_offsets`, `by_label`); then the [`CsrGraph::digest`] as
    /// a u64 LE trailer. Every section sits at an offset computable
    /// from the header alone, so a future mmap-backed reader can map
    /// sections in place.
    pub fn save_image(&self, path: impl AsRef<Path>) -> Result<(), VqiError> {
        let path = path.as_ref();
        let file = std::fs::File::create(path).map_err(|e| VqiError::Parse {
            line: 0,
            reason: format!("cannot create {}: {e}", path.display()),
        })?;
        let mut w = std::io::BufWriter::new(file);
        let mut out = |bytes: &[u8]| -> Result<(), VqiError> {
            w.write_all(bytes).map_err(|e| VqiError::Parse {
                line: 0,
                reason: format!("cannot write {}: {e}", path.display()),
            })
        };
        out(b"VQICSR01")?;
        out(&(self.node_labels.len() as u64).to_le_bytes())?;
        out(&(self.endpoints.len() as u64).to_le_bytes())?;
        out(&(self.labels.len() as u64).to_le_bytes())?;
        // chunked u32 conversion: bounded buffer, no per-value write call
        let mut buf = Vec::with_capacity(4 * 16_384);
        macro_rules! write_u32s {
            ($iter:expr) => {
                for x in $iter {
                    buf.extend_from_slice(&x.to_le_bytes());
                    if buf.len() >= 4 * 16_384 {
                        out(&buf)?;
                        buf.clear();
                    }
                }
                if !buf.is_empty() {
                    out(&buf)?;
                    buf.clear();
                }
            };
        }
        write_u32s!(self.node_labels.iter().copied());
        write_u32s!(self.offsets.iter().copied());
        write_u32s!(self.nbr.iter().flat_map(|&(v, e)| [v.0, e.0]));
        write_u32s!(self.endpoints.iter().flat_map(|&(u, v)| [u.0, v.0]));
        write_u32s!(self.edge_labels.iter().copied());
        write_u32s!(self.labels.iter().copied());
        write_u32s!(self.bucket_offsets.iter().copied());
        write_u32s!(self.by_label.iter().map(|v| v.0));
        out(&self.digest().to_le_bytes())?;
        w.flush().map_err(|e| VqiError::Parse {
            line: 0,
            reason: format!("cannot flush {}: {e}", path.display()),
        })
    }

    /// Loads an image written by [`CsrGraph::save_image`]; the
    /// path-reading twin of [`CsrGraph::decode_image`].
    pub fn load_image(path: impl AsRef<Path>) -> Result<CsrGraph, VqiError> {
        let path = path.as_ref();
        let mut bytes = Vec::new();
        std::fs::File::open(path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|e| VqiError::Parse {
                line: 0,
                reason: format!("cannot read {}: {e}", path.display()),
            })?;
        CsrGraph::decode_image(&bytes)
    }

    /// Decodes a `VQICSR01` image from bytes, validating the magic,
    /// section sizes, CSR invariants, bucket invariants, and the digest
    /// trailer. Errors are reported in the style of [`crate::io`]:
    /// `VqiError::Parse` carrying the 1-based *section* number in
    /// `line` and a reason naming what was wrong.
    ///
    /// Adversarial-input contract: any truncation, extension, or bit
    /// flip of a valid image yields `Err(Parse)` — never a panic and
    /// never an allocation sized by a corrupt length field. The header
    /// counts are range-checked (`n`, `m` against u32 packing, `nl`
    /// against `n`) and the implied section lengths are balanced
    /// against the *actual* byte count with overflow-checked arithmetic
    /// before anything is sliced or allocated.
    pub fn decode_image(bytes: &[u8]) -> Result<CsrGraph, VqiError> {
        let err = |section: usize, reason: String| VqiError::Parse {
            line: section,
            reason,
        };
        // section 1: header
        if bytes.len() < 32 {
            return Err(err(1, "truncated header".into()));
        }
        if &bytes[..8] != b"VQICSR01" {
            return Err(err(1, "bad magic (not a VQICSR01 image)".into()));
        }
        let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().expect("8 bytes"));
        let n64 = u64_at(8);
        let m64 = u64_at(16);
        let nl64 = u64_at(24);
        if n64 > u32::MAX as u64 || m64.checked_mul(2).is_none_or(|x| x > u32::MAX as u64) {
            return Err(err(1, format!("counts out of u32 range: n={n64}, m={m64}")));
        }
        // a valid image has at most one label class per node (one for
        // the empty graph); a larger nl is corruption, and rejecting it
        // here keeps every length below overflow range
        if nl64 > n64.max(1) {
            return Err(err(
                1,
                format!("label class count {nl64} exceeds node count {n64}"),
            ));
        }
        let (n, m, nl) = (n64 as usize, m64 as usize, nl64 as usize);
        let body = &bytes[32..];
        let lens = [n, n + 1, 4 * m, 2 * m, m, nl, nl + 1, n];
        let total_u32: usize = lens.iter().sum();
        if body.len() != 4 * total_u32 + 8 {
            return Err(err(
                1,
                format!(
                    "image size mismatch: have {} body bytes, header implies {}",
                    body.len(),
                    4 * total_u32 + 8
                ),
            ));
        }
        let mut pos = 0usize;
        let mut take = |count: usize| -> Vec<u32> {
            let out = body[pos..pos + 4 * count]
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
                .collect();
            pos += 4 * count;
            out
        };
        let node_labels = take(n); // section 2
        let offsets = take(n + 1); // section 3
        let nbr_raw = take(4 * m); // section 4 (2m pairs)
        let endpoints_raw = take(2 * m); // section 5
        let edge_labels = take(m); // section 6
        let labels = take(nl); // section 7
        let bucket_offsets = take(nl + 1); // section 8
        let by_label_raw = take(n); // section 9
        let stored_digest = u64::from_le_bytes(body[pos..pos + 8].try_into().expect("8 bytes"));

        // section 3: CSR offsets must start at 0, be monotone, end at 2m
        if offsets.first() != Some(&0) {
            return Err(err(3, "offsets must start at 0".into()));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(err(3, "offsets must be monotone".into()));
        }
        if offsets.last().copied() != Some(2 * m as u32) {
            return Err(err(
                3,
                format!(
                    "offsets must end at 2m = {}, found {:?}",
                    2 * m,
                    offsets.last()
                ),
            ));
        }
        // section 4: neighbor/edge ids in range
        let nbr: Vec<(NodeId, EdgeId)> = nbr_raw
            .chunks_exact(2)
            .map(|c| (NodeId(c[0]), EdgeId(c[1])))
            .collect();
        for &(v, e) in &nbr {
            if v.index() >= n || e.index() >= m {
                return Err(err(4, format!("target ({v}, {e}) out of range")));
            }
        }
        // section 5: endpoints in range, no self-loops
        let endpoints: Vec<(NodeId, NodeId)> = endpoints_raw
            .chunks_exact(2)
            .map(|c| (NodeId(c[0]), NodeId(c[1])))
            .collect();
        for &(u, v) in &endpoints {
            if u.index() >= n || v.index() >= n || u == v {
                return Err(err(5, format!("bad endpoints ({u}, {v})")));
            }
        }
        // section 7: labels strictly ascending
        if labels.windows(2).any(|w| w[0] >= w[1]) {
            return Err(err(7, "label classes must be strictly ascending".into()));
        }
        // section 8: bucket offsets monotone, ending at n
        if bucket_offsets.windows(2).any(|w| w[0] > w[1])
            || bucket_offsets.last().copied() != Some(n as u32)
        {
            return Err(err(
                8,
                "bucket offsets must be monotone and end at n".into(),
            ));
        }
        let by_label: Vec<NodeId> = by_label_raw.into_iter().map(NodeId).collect();
        for &v in &by_label {
            if v.index() >= n {
                return Err(err(9, format!("bucket node {v} out of range")));
            }
        }
        let g = CsrGraph {
            node_labels,
            offsets,
            nbr,
            endpoints,
            edge_labels,
            labels,
            bucket_offsets,
            by_label,
        };
        // section 10: digest trailer (covers node labels, offsets,
        // nbr, endpoints, and edge labels)
        if g.digest() != stored_digest {
            return Err(err(10, "digest mismatch (image corrupted)".into()));
        }
        // sections 7–9 are derived data the digest does not cover;
        // recomputing them from the (now digest-verified) node labels
        // catches any bucket corruption the structural checks let
        // through
        let (want_labels, want_offsets, want_by_label) = label_buckets(&g.node_labels);
        if g.labels != want_labels
            || g.bucket_offsets != want_offsets
            || g.by_label != want_by_label
        {
            return Err(err(7, "label buckets disagree with node labels".into()));
        }
        Ok(g)
    }
}

impl GraphStorage for CsrGraph {
    #[inline]
    fn node_count(&self) -> usize {
        self.node_labels.len()
    }
    #[inline]
    fn edge_count(&self) -> usize {
        self.endpoints.len()
    }
    #[inline]
    fn node_label(&self, v: NodeId) -> Label {
        self.node_labels[v.index()]
    }
    #[inline]
    fn edge_label(&self, e: EdgeId) -> Label {
        self.edge_labels[e.index()]
    }
    #[inline]
    fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.endpoints[e.index()]
    }
    #[inline]
    fn neighbor_slice(&self, v: NodeId) -> &[(NodeId, EdgeId)] {
        let lo = self.offsets[v.index()] as usize;
        let hi = self.offsets[v.index() + 1] as usize;
        &self.nbr[lo..hi]
    }
    fn label_classes(&self) -> Vec<Label> {
        self.labels.clone()
    }
    fn nodes_with_label(&self, l: Label) -> Vec<NodeId> {
        match self.labels.binary_search(&l) {
            Ok(i) => {
                let lo = self.bucket_offsets[i] as usize;
                let hi = self.bucket_offsets[i + 1] as usize;
                self.by_label[lo..hi].to_vec()
            }
            Err(_) => Vec::new(),
        }
    }
}

/// A neighbor view with **id-sorted** rows — what the graphlet census
/// binary-searches for edge existence. [`SortedAdjacency`] (per-row
/// `Vec`s, from a heap [`Graph`]) and [`SortedCsr`] (one packed array,
/// from any [`GraphStorage`]) both implement it; the census is generic
/// over which.
pub trait NeighborView: Sync {
    /// The neighbors of `v` as `(neighbor, edge id)` pairs sorted by
    /// neighbor id.
    fn neighbors(&self, v: NodeId) -> &[(NodeId, EdgeId)];

    /// The edge between `u` and `v`, if any, by binary search over the
    /// smaller row.
    #[inline]
    fn edge_between(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        let (a, b) = if self.neighbors(u).len() <= self.neighbors(v).len() {
            (u, v)
        } else {
            (v, u)
        };
        let row = self.neighbors(a);
        row.binary_search_by_key(&b, |&(q, _)| q)
            .ok()
            .map(|i| row[i].1)
    }

    /// True if an edge `u -- v` exists.
    #[inline]
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_between(u, v).is_some()
    }
}

impl NeighborView for SortedAdjacency {
    #[inline]
    fn neighbors(&self, v: NodeId) -> &[(NodeId, EdgeId)] {
        SortedAdjacency::neighbors(self, v)
    }
    #[inline]
    fn edge_between(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        SortedAdjacency::edge_between(self, u, v)
    }
    #[inline]
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        SortedAdjacency::has_edge(self, u, v)
    }
}

/// The packed equivalent of [`SortedAdjacency`]: one CSR array with
/// every row sorted by neighbor id, buildable from any
/// [`GraphStorage`] without per-node allocations.
#[derive(Debug, Clone)]
pub struct SortedCsr {
    offsets: Vec<u32>,
    nbr: Vec<(NodeId, EdgeId)>,
}

impl SortedCsr {
    /// Freezes a sorted CSR view of `g`.
    pub fn from_storage<S: GraphStorage + ?Sized>(g: &S) -> SortedCsr {
        let n = g.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut nbr = Vec::with_capacity(2 * g.edge_count());
        offsets.push(0u32);
        for v in 0..n {
            nbr.extend_from_slice(g.neighbor_slice(NodeId(v as u32)));
            offsets.push(nbr.len() as u32);
        }
        for v in 0..n {
            let lo = offsets[v] as usize;
            let hi = offsets[v + 1] as usize;
            nbr[lo..hi].sort_unstable_by_key(|&(u, _)| u);
        }
        SortedCsr { offsets, nbr }
    }
}

impl NeighborView for SortedCsr {
    #[inline]
    fn neighbors(&self, v: NodeId) -> &[(NodeId, EdgeId)] {
        let lo = self.offsets[v.index()] as usize;
        let hi = self.offsets[v.index() + 1] as usize;
        &self.nbr[lo..hi]
    }
}

/// The subgraph of `g` induced by `nodes`, behind
/// [`Graph::induced_subgraph`]: nodes renumbered densely in the order
/// given (duplicates ignored after the first), edges added in mapping
/// order over insertion-ordered rows, so the subgraph is bit-identical
/// whichever backend `g` is.
pub fn induced_subgraph_of<S: GraphStorage + ?Sized>(
    g: &S,
    nodes: &[NodeId],
) -> (Graph, Vec<NodeId>) {
    let mut index = vec![u32::MAX; g.node_count()];
    let mut mapping = Vec::with_capacity(nodes.len());
    let mut sub = Graph::with_capacity(nodes.len(), nodes.len());
    for &n in nodes {
        if index[n.index()] == u32::MAX {
            index[n.index()] = sub.add_node(g.node_label(n)).0;
            mapping.push(n);
        }
    }
    for &n in &mapping {
        for &(m, e) in g.neighbor_slice(n) {
            if index[m.index()] != u32::MAX && n < m {
                sub.add_edge(
                    NodeId(index[n.index()]),
                    NodeId(index[m.index()]),
                    g.edge_label(e),
                );
            }
        }
    }
    (sub, mapping)
}

/// A heap [`Graph`] of the node ids `0..nodes` of `g` and the edges
/// among them, with labels, edge orientation and edge-id order kept. So
/// every adjacency row is `g`'s row with the edges leaving the prefix
/// dropped, and with `nodes == g.node_count()` the result is `g` id for
/// id whichever backend `g` is ([`CsrGraph::to_graph`]). A shorter
/// prefix is read from its own rows, so its cost follows the prefix,
/// not `g`.
pub fn prefix_graph_of<S: GraphStorage + ?Sized>(g: &S, nodes: usize) -> Graph {
    let edge = |e: EdgeId| {
        let (u, v) = g.endpoints(e);
        EdgeData {
            u,
            v,
            label: g.edge_label(e),
        }
    };
    let edges: Vec<EdgeData> = if nodes == g.node_count() {
        (0..g.edge_count() as u32).map(EdgeId).map(edge).collect()
    } else {
        // each inner edge once, from its lower endpoint's row
        let mut ids = Vec::new();
        for n in 0..nodes as u32 {
            for &(m, e) in g.neighbor_slice(NodeId(n)) {
                if n < m.0 && m.index() < nodes {
                    ids.push(e);
                }
            }
        }
        ids.sort_unstable();
        ids.into_iter().map(edge).collect()
    };
    let labels = (0..nodes as u32).map(|v| g.node_label(NodeId(v))).collect();
    Graph::from_edge_data(labels, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{assign_labels, erdos_renyi, SyntheticSpec};
    use crate::graphlet::count_graphlets_par;
    use crate::index::Fingerprint;
    use crate::truss::trussness;
    use crate::{par, Graph};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn labeled_random(seed: u64) -> Graph {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut g = erdos_renyi(60, 0.12, 0, &mut rng);
        assign_labels(&mut g, 3, 2, &mut rng);
        g
    }

    #[test]
    fn storage_accessors_match_graph_exactly() {
        for seed in 0..4u64 {
            let g = labeled_random(seed);
            let c = CsrGraph::from_graph(&g);
            assert_eq!(GraphStorage::node_count(&c), g.node_count());
            assert_eq!(GraphStorage::edge_count(&c), g.edge_count());
            for v in g.nodes() {
                assert_eq!(GraphStorage::node_label(&c, v), g.node_label(v));
                assert_eq!(GraphStorage::degree(&c, v), g.degree(v));
                assert_eq!(
                    GraphStorage::neighbor_slice(&c, v),
                    g.neighbor_slice(v),
                    "row order must be insertion order"
                );
            }
            for e in g.edges() {
                assert_eq!(GraphStorage::endpoints(&c, e), g.endpoints(e));
                assert_eq!(GraphStorage::edge_label(&c, e), g.edge_label(e));
            }
            for l in GraphStorage::label_classes(&g) {
                assert_eq!(
                    GraphStorage::nodes_with_label(&c, l),
                    GraphStorage::nodes_with_label(&g, l)
                );
            }
            assert_eq!(
                GraphStorage::label_classes(&c),
                GraphStorage::label_classes(&g)
            );
        }
    }

    #[test]
    fn storage_trussness_and_census_are_bit_identical_across_backends() {
        // the 12-seed property suite of the storage-equivalence
        // contract: heap Graph vs CsrGraph at thread caps 1, 2, and 4
        let _guard = crate::kernel_test_lock();
        for seed in 0..12u64 {
            let g = labeled_random(seed);
            let c = CsrGraph::from_graph(&g);
            let mut across: Option<(Vec<u32>, [u64; 8])> = None;
            for cap in [1usize, 2, 4] {
                par::set_thread_cap(cap);
                let t_heap = trussness(&g);
                let t_csr = trussness(&c);
                let c_heap = count_graphlets_par(&g).counts;
                let c_csr = count_graphlets_par(&c).counts;
                par::set_thread_cap(0);
                assert_eq!(t_heap, t_csr, "seed {seed} cap {cap}: trussness diverged");
                assert_eq!(c_heap, c_csr, "seed {seed} cap {cap}: census diverged");
                match &across {
                    None => across = Some((t_csr, c_csr)),
                    Some((t0, c0)) => {
                        assert_eq!(t0, &t_csr, "seed {seed} cap {cap} changed trussness");
                        assert_eq!(c0, &c_csr, "seed {seed} cap {cap} changed census");
                    }
                }
            }
        }
    }

    #[test]
    fn storage_induced_subgraph_matches_graph_induced_subgraph() {
        for seed in 0..6u64 {
            let g = labeled_random(seed);
            let c = CsrGraph::from_graph(&g);
            let nodes: Vec<NodeId> = (0..30).map(NodeId).collect();
            assert_eq!(g.induced_subgraph(&nodes), induced_subgraph_of(&c, &nodes));
        }
    }

    #[test]
    fn storage_prefix_graph_keeps_ids_and_edge_order_on_both_backends() {
        for seed in 0..6u64 {
            let g = labeled_random(seed);
            let c = CsrGraph::from_graph(&g);
            let n = g.node_count();
            assert!(prefix_graph_of(&g, n) == g, "seed {seed}: heap copy");
            assert!(prefix_graph_of(&c, n) == g, "seed {seed}: CSR copy");
            for cut in [0, 1, n / 3, n - 1] {
                let (heap, packed) = (prefix_graph_of(&g, cut), prefix_graph_of(&c, cut));
                assert!(heap == packed, "seed {seed} cut {cut}: backends differ");
                // the prefix's edges are g's edges inside it, in id order
                let inside: Vec<(NodeId, NodeId, Label)> = g
                    .edges()
                    .map(|e| (g.endpoints(e), g.edge_label(e)))
                    .filter(|&((u, v), _)| u.index() < cut && v.index() < cut)
                    .map(|((u, v), l)| (u, v, l))
                    .collect();
                let got: Vec<(NodeId, NodeId, Label)> = heap
                    .edges()
                    .map(|e| (heap.endpoints(e).0, heap.endpoints(e).1, heap.edge_label(e)))
                    .collect();
                assert_eq!(got, inside, "seed {seed} cut {cut}");
                assert_eq!(heap.node_count(), cut);
            }
        }
    }

    #[test]
    fn storage_roundtrips_through_graph() {
        for seed in 0..4u64 {
            let g = labeled_random(seed);
            let c = CsrGraph::from_graph(&g);
            let back = c.to_graph();
            assert_eq!(Fingerprint::of(&g), Fingerprint::of(&back));
            assert_eq!(CsrGraph::from_graph(&back), c);
        }
    }

    #[test]
    fn storage_streamed_synthetic_matches_heap_twin() {
        let spec = SyntheticSpec {
            nodes: 400,
            uniform_edges: 500,
            cliques: 6,
            node_labels: 3,
            edge_labels: 2,
            seed: 0xA11CE,
        };
        let heap = crate::generate::synthetic_network(&spec);
        assert_eq!(heap.edge_count(), spec.edge_count());
        let streamed = CsrGraph::from_synthetic(&spec);
        assert_eq!(streamed, CsrGraph::from_graph(&heap));
    }

    #[test]
    fn storage_sorted_csr_agrees_with_sorted_adjacency() {
        for seed in 0..4u64 {
            let g = labeled_random(seed);
            let c = CsrGraph::from_graph(&g);
            let sa = g.sorted_adjacency();
            let sc = SortedCsr::from_storage(&c);
            for v in g.nodes() {
                assert_eq!(NeighborView::neighbors(&sa, v), sc.neighbors(v));
                for u in g.nodes() {
                    assert_eq!(NeighborView::edge_between(&sa, u, v), sc.edge_between(u, v));
                }
            }
        }
    }

    #[test]
    fn storage_image_roundtrip_preserves_digest() {
        let dir = std::env::temp_dir().join(format!("vqi_csr_image_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("roundtrip.vqicsr");
        let g = labeled_random(7);
        let c = CsrGraph::from_graph(&g);
        c.save_image(&path).expect("save");
        let loaded = CsrGraph::load_image(&path).expect("load");
        assert_eq!(loaded, c);
        assert_eq!(loaded.digest(), c.digest());
        // and the reconstructed heap graph fingerprints identically
        assert_eq!(Fingerprint::of(&loaded.to_graph()), Fingerprint::of(&g));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn storage_corrupt_images_report_section_and_reason() {
        let dir = std::env::temp_dir().join(format!("vqi_csr_corrupt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let g = labeled_random(9);
        let c = CsrGraph::from_graph(&g);
        let path = dir.join("image.vqicsr");
        c.save_image(&path).expect("save");
        let valid = std::fs::read(&path).expect("read back");

        // (mutation, expected section, expected reason fragment) — the
        // io.rs corrupt-fixture table, for binary images
        type Mutation = Box<dyn Fn(&mut Vec<u8>)>;
        let cases: Vec<(&str, Mutation, usize, &str)> = vec![
            (
                "truncated header",
                Box::new(|b: &mut Vec<u8>| b.truncate(10)),
                1,
                "truncated header",
            ),
            (
                "bad magic",
                Box::new(|b: &mut Vec<u8>| b[0] = b'X'),
                1,
                "bad magic",
            ),
            (
                "truncated body",
                Box::new(|b: &mut Vec<u8>| {
                    let keep = b.len() - 9;
                    b.truncate(keep);
                }),
                1,
                "size mismatch",
            ),
            (
                "node count lies",
                Box::new(|b: &mut Vec<u8>| b[8] = b[8].wrapping_add(1)),
                1,
                "size mismatch",
            ),
            (
                "non-monotone offsets",
                Box::new(|b: &mut Vec<u8>| {
                    // first offset entry (always 0) bumped above its successor
                    let o = 32 + 4 * 60;
                    b[o..o + 4].copy_from_slice(&u32::MAX.to_le_bytes());
                }),
                3,
                "offsets",
            ),
            (
                "flipped payload bit",
                Box::new(|b: &mut Vec<u8>| {
                    // a node label changes: structurally valid, digest disagrees
                    let o = 32;
                    b[o] ^= 1;
                }),
                10,
                "digest mismatch",
            ),
        ];
        for (name, mutate, section, fragment) in cases {
            let mut bytes = valid.clone();
            mutate(&mut bytes);
            let p = dir.join("corrupt.vqicsr");
            std::fs::write(&p, &bytes).expect("write corrupt");
            match CsrGraph::load_image(&p) {
                Err(VqiError::Parse { line, reason }) => {
                    assert_eq!(line, section, "{name}: wrong section ({reason})");
                    assert!(
                        reason.contains(fragment),
                        "{name}: reason {reason:?} missing {fragment:?}"
                    );
                }
                other => panic!("{name}: expected Parse error, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn storage_image_truncation_and_bitflip_sweeps_yield_parse_errors() {
        // the adversarial-input contract of decode_image: every
        // truncation (swept at each section boundary and nearby bytes)
        // and every single-bit flip must come back Err(Parse) — no
        // panic, no allocation sized by a corrupt length field
        let g = labeled_random(11);
        let c = CsrGraph::from_graph(&g);
        let valid = c.encode_image();
        assert_eq!(CsrGraph::decode_image(&valid).expect("decode"), c);

        let n = GraphStorage::node_count(&c);
        let m = GraphStorage::edge_count(&c);
        let nl = GraphStorage::label_classes(&c).len();
        // section start offsets implied by the header
        let mut boundaries = vec![0usize, 8, 16, 24, 32];
        let mut off = 32usize;
        for len in [n, n + 1, 4 * m, 2 * m, m, nl, nl + 1, n] {
            off += 4 * len;
            boundaries.push(off);
        }
        boundaries.push(valid.len()); // digest trailer end
        for &b in &boundaries {
            for cut in [b.saturating_sub(3), b.saturating_sub(1), b, b + 1, b + 5] {
                if cut >= valid.len() {
                    continue;
                }
                match CsrGraph::decode_image(&valid[..cut]) {
                    Err(VqiError::Parse { .. }) => {}
                    other => panic!("truncation at {cut}: expected Parse, got {other:?}"),
                }
            }
        }
        // bit-flip sweep: every byte, one flipped bit (rotating which)
        let mut flipped = valid.clone();
        for i in 0..valid.len() {
            flipped[i] ^= 1 << (i % 8);
            match CsrGraph::decode_image(&flipped) {
                Err(VqiError::Parse { .. }) => {}
                other => panic!("bit flip at byte {i}: expected Parse, got {other:?}"),
            }
            flipped[i] = valid[i];
        }
        // a header claiming absurd counts errors before any allocation
        for (word, value) in [(8, u64::MAX), (16, u64::MAX / 2), (24, u64::MAX)] {
            let mut huge = valid.clone();
            huge[word..word + 8].copy_from_slice(&value.to_le_bytes());
            match CsrGraph::decode_image(&huge) {
                Err(VqiError::Parse { line: 1, .. }) => {}
                other => panic!("huge count at {word}: expected Parse, got {other:?}"),
            }
        }
        // trailing garbage after the digest is a size mismatch
        let mut extended = valid.clone();
        extended.extend_from_slice(&[0u8; 7]);
        assert!(matches!(
            CsrGraph::decode_image(&extended),
            Err(VqiError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn storage_encode_image_matches_save_image_bytes() {
        let dir = std::env::temp_dir().join(format!("vqi_csr_encode_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("twin.vqicsr");
        let c = CsrGraph::from_graph(&labeled_random(3));
        c.save_image(&path).expect("save");
        assert_eq!(std::fs::read(&path).expect("read"), c.encode_image());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn storage_empty_and_tiny_graphs_are_handled() {
        let empty = Graph::new();
        let c = CsrGraph::from_graph(&empty);
        assert_eq!(GraphStorage::node_count(&c), 0);
        assert_eq!(GraphStorage::edge_count(&c), 0);
        assert_eq!(trussness(&c), Vec::<u32>::new());

        let mut one = Graph::new();
        one.add_node(5);
        let c1 = CsrGraph::from_graph(&one);
        assert_eq!(GraphStorage::neighbor_slice(&c1, NodeId(0)), &[]);
        assert_eq!(GraphStorage::nodes_with_label(&c1, 5), vec![NodeId(0)]);
        assert_eq!(GraphStorage::nodes_with_label(&c1, 4), Vec::<NodeId>::new());

        // images of degenerate graphs round-trip too (checkpoint slots
        // can hold empty graphs)
        for tiny in [&c, &c1] {
            let back = CsrGraph::decode_image(&tiny.encode_image()).expect("decode tiny");
            assert_eq!(&back, tiny);
        }
    }
}

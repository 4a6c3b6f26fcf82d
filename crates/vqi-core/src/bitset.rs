//! A packed fixed-length bitset for coverage bookkeeping.
//!
//! Every selection and maintenance loop tracks "which repository units
//! (data graphs or network edges) does this pattern cover" as a bitset.
//! `Vec<bool>` spends a byte per bit and forces element-at-a-time loops;
//! [`BitSet`] packs 64 units per word so the hot operations of the greedy
//! and swap loops — marginal gain (`|c \ covered|`), union, and the
//! sole-coverage computations of MIDAS's pruning — run word-parallel.
//!
//! Invariant: bits at positions `>= len` are always zero, so popcounts
//! never need tail masking. All binary operations require equal lengths.

/// A fixed-length set of bits packed into `u64` words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An all-zeros bitset of `len` bits.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// A bitset of `len` bits from its packed words: bit `i` is bit
    /// `i % 64` of `words[i / 64]`. Panics unless there are exactly
    /// `len.div_ceil(64)` words and no bit at or past `len` is set.
    pub fn from_words(len: usize, words: Vec<u64>) -> Self {
        assert_eq!(words.len(), len.div_ceil(64), "word count for {len} bits");
        if let (Some(last), tail @ 1..) = (words.last(), len % 64) {
            assert_eq!(last >> tail, 0, "bits set past {len}");
        }
        BitSet { words, len }
    }

    /// Builds a bitset from a slice of booleans.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut s = BitSet::new(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                s.set(i);
            }
        }
        s
    }

    /// Number of bits (set or not).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitset has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bit at position `i`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Sets the bit at position `i`.
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Clears the bit at position `i`.
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Drops the positions `removed` (ascending, distinct, each `< len`)
    /// and closes the gaps: the bit at `i` moves to `i` minus the number
    /// of removed positions below it, and the length shrinks by
    /// `removed.len()`. This is how per-edge state follows
    /// [`Graph::remove_edges`](vqi_graph::Graph::remove_edges), which
    /// renumbers the surviving edges the same way. The kept runs move
    /// a word at a time, in place.
    pub fn compact(&mut self, removed: &[usize]) {
        if removed.is_empty() {
            return;
        }
        assert!(
            removed.windows(2).all(|w| w[0] < w[1]),
            "removed positions must ascend"
        );
        let last = removed[removed.len() - 1];
        assert!(last < self.len, "bit {last} out of range {}", self.len);
        // output word `out` fills in `acc`; it is stored only once full,
        // when every source bit below the next read lies past it
        let (mut acc, mut fill, mut out, mut from) = (0u64, 0usize, 0usize, 0usize);
        for &to in removed.iter().chain(std::iter::once(&self.len)) {
            while from < to {
                let n = (to - from).min(64 - fill);
                acc |= self.read(from, n) << fill;
                fill += n;
                from += n;
                if fill == 64 {
                    self.words[out] = acc;
                    (acc, fill, out) = (0, 0, out + 1);
                }
            }
            from = to + 1;
        }
        if fill > 0 {
            self.words[out] = acc;
            out += 1;
        }
        self.words.truncate(out);
        self.len -= removed.len();
    }

    /// The `n <= 64` bits from position `i` (which may straddle two
    /// words), in the low bits of the result.
    fn read(&self, i: usize, n: usize) -> u64 {
        let (w, o) = (i / 64, i % 64);
        let mut bits = self.words[w] >> o;
        if o > 0 && w + 1 < self.words.len() {
            bits |= self.words[w + 1] << (64 - o);
        }
        if n < 64 {
            bits &= (1 << n) - 1;
        }
        bits
    }

    /// Extends the bitset to `len` bits, the new ones zero (a no-op at
    /// the current length).
    pub fn grow(&mut self, len: usize) {
        assert!(len >= self.len, "cannot shrink {} to {len}", self.len);
        self.words.resize(len.div_ceil(64), 0);
        self.len = len;
    }

    /// True if any bit is set.
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `self |= other`.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        for (w, &o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// `self |= a & b` — used to accumulate multiply-covered bits.
    pub fn or_and(&mut self, a: &BitSet, b: &BitSet) {
        assert_eq!(self.len, a.len, "bitset length mismatch");
        assert_eq!(self.len, b.len, "bitset length mismatch");
        for ((w, &x), &y) in self.words.iter_mut().zip(&a.words).zip(&b.words) {
            *w |= x & y;
        }
    }

    /// `self & other` as a new bitset.
    pub fn and(&self, other: &BitSet) -> BitSet {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        BitSet {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(&a, &b)| a & b)
                .collect(),
            len: self.len,
        }
    }

    /// `self & !other` as a new bitset.
    pub fn and_not(&self, other: &BitSet) -> BitSet {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        BitSet {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(&a, &b)| a & !b)
                .collect(),
            len: self.len,
        }
    }

    /// `|self & other|`.
    pub fn count_and(&self, other: &BitSet) -> usize {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(&a, &b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// `|self & !other|` — the marginal gain of `self` over `other`.
    pub fn count_and_not(&self, other: &BitSet) -> usize {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(&a, &b)| (a & !b).count_ones() as usize)
            .sum()
    }

    /// True if `self & !other` has any set bit.
    pub fn any_and_not(&self, other: &BitSet) -> bool {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .any(|(&a, &b)| a & !b != 0)
    }

    /// Iterates the positions of set bits, ascending.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqi_graph::{EdgeBatch, EdgeId, Graph};

    /// Deterministic pseudo-random boolean vectors for model testing.
    fn model(len: usize, seed: u64) -> Vec<bool> {
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x & 1 == 1
            })
            .collect()
    }

    #[test]
    fn roundtrip_and_counts_match_bool_model() {
        for len in [0usize, 1, 63, 64, 65, 130, 200] {
            let a = model(len, len as u64 + 1);
            let s = BitSet::from_bools(&a);
            assert_eq!(s.len(), len);
            for (i, &b) in a.iter().enumerate() {
                assert_eq!(s.get(i), b, "bit {i} of len {len}");
            }
            assert_eq!(s.count_ones(), a.iter().filter(|&&b| b).count());
            assert_eq!(s.any(), a.iter().any(|&b| b));
            let ones: Vec<usize> = s.ones().collect();
            let expect: Vec<usize> = (0..len).filter(|&i| a[i]).collect();
            assert_eq!(ones, expect);
        }
    }

    #[test]
    fn binary_ops_match_bool_model() {
        for len in [1usize, 64, 100, 129] {
            let a = model(len, 7);
            let b = model(len, 13);
            let sa = BitSet::from_bools(&a);
            let sb = BitSet::from_bools(&b);

            let and_expect: Vec<bool> = a.iter().zip(&b).map(|(&x, &y)| x && y).collect();
            assert_eq!(sa.and(&sb), BitSet::from_bools(&and_expect));
            let and_not_expect: Vec<bool> = a.iter().zip(&b).map(|(&x, &y)| x && !y).collect();
            assert_eq!(sa.and_not(&sb), BitSet::from_bools(&and_not_expect));
            assert_eq!(sa.count_and(&sb), and_expect.iter().filter(|&&x| x).count());
            assert_eq!(
                sa.count_and_not(&sb),
                and_not_expect.iter().filter(|&&x| x).count()
            );
            assert_eq!(sa.any_and_not(&sb), and_not_expect.iter().any(|&x| x));

            let mut u = sa.clone();
            u.union_with(&sb);
            let or_expect: Vec<bool> = a.iter().zip(&b).map(|(&x, &y)| x || y).collect();
            assert_eq!(u, BitSet::from_bools(&or_expect));

            let c = model(len, 29);
            let mut acc = BitSet::from_bools(&c);
            acc.or_and(&sa, &sb);
            let or_and_expect: Vec<bool> = c
                .iter()
                .zip(and_expect.iter())
                .map(|(&x, &y)| x || y)
                .collect();
            assert_eq!(acc, BitSet::from_bools(&or_and_expect));
        }
    }

    #[test]
    fn set_updates_bits() {
        let mut s = BitSet::new(70);
        assert!(!s.any());
        s.set(0);
        s.set(69);
        assert!(s.get(0) && s.get(69) && !s.get(35));
        assert_eq!(s.count_ones(), 2);
        assert_eq!(s.ones().collect::<Vec<_>>(), vec![0, 69]);
    }

    #[test]
    fn clear_compact_and_grow_match_bool_model() {
        for len in [1usize, 63, 64, 65, 130, 200] {
            let a = model(len, len as u64 + 3);
            let mut s = BitSet::from_bools(&a);
            let mut m = a.clone();
            for i in (0..len).step_by(3) {
                s.clear(i);
                m[i] = false;
            }
            assert_eq!(s, BitSet::from_bools(&m), "clear, len {len}");
            let drop: Vec<bool> = model(len, 99 + len as u64);
            // the first and the last position, and a run of three
            let mut removed: Vec<usize> = (0..len).filter(|&i| drop[i] && i % 5 == 0).collect();
            removed.extend([0, len - 1]);
            removed.extend((len / 2..len).take(3));
            removed.sort_unstable();
            removed.dedup();
            s.compact(&removed);
            let kept: Vec<bool> = (0..len)
                .filter(|i| removed.binary_search(i).is_err())
                .map(|i| m[i])
                .collect();
            assert_eq!(s, BitSet::from_bools(&kept), "compact, len {len}");
            s.compact(&[]);
            assert_eq!(s.len(), kept.len());
            s.grow(kept.len() + 70);
            let mut grown = kept.clone();
            grown.resize(kept.len() + 70, false);
            assert_eq!(s, BitSet::from_bools(&grown), "grow, len {len}");
        }
        let mut all = BitSet::from_bools(&[true; 3]);
        all.compact(&[0, 1, 2]);
        assert!(all.is_empty() && !all.any());
    }

    /// A per-edge flag that reads only the endpoints' rows, like star
    /// coverage: it can change only on edges incident to a touched node.
    fn row_flag(g: &Graph, e: EdgeId) -> bool {
        let (u, v) = g.endpoints(e);
        (g.degree(u) + g.degree(v) + g.edge_label(e) as usize).is_multiple_of(3)
    }

    fn flags(g: &Graph) -> BitSet {
        let bools: Vec<bool> = g.edges().map(|e| row_flag(g, e)).collect();
        BitSet::from_bools(&bools)
    }

    #[test]
    fn compacted_edge_flags_equal_a_rebuild_on_the_edited_graph() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..12u64 {
            let rng = &mut SmallRng::seed_from_u64(seed);
            let mut g = vqi_graph::generate::erdos_renyi(30, 0.15, 0, rng);
            let mut bits = flags(&g);
            for round in 0..8 {
                let ctx = format!("seed {seed} round {round}");
                let m = g.edge_count() as u32;
                let n = g.node_count() as u32;
                let mut batch = EdgeBatch::default();
                let endpoints = |e: u32| {
                    let (u, v) = g.endpoints(EdgeId(e));
                    (u.0, v.0)
                };
                match round {
                    // an empty edit
                    0 => {}
                    // the first and the last edge id
                    1 => batch.edge_removals.extend([endpoints(0), endpoints(m - 1)]),
                    _ => {
                        for _ in 0..rng.gen_range(0..5) {
                            batch.edge_removals.push(endpoints(rng.gen_range(0..m)));
                        }
                        // removed, then re-added with another label
                        let (a, b) = endpoints(rng.gen_range(0..m));
                        batch.edge_removals.push((a, b));
                        batch.edge_additions.push((b, a, 1));
                        batch.node_additions.push(0);
                        for _ in 0..rng.gen_range(1..5) {
                            let (u, v) = (rng.gen_range(0..=n), rng.gen_range(0..=n));
                            batch.edge_additions.push((u, v, rng.gen_range(0..2)));
                        }
                    }
                }
                let edit = g.apply_batch(&batch);
                let removed: Vec<usize> = edit.removed_ids.iter().map(|e| e.index()).collect();
                bits.compact(&removed);
                bits.grow(g.edge_count());
                for &(v, _) in &edit.touched {
                    for &(_, e) in g.neighbor_slice(v) {
                        if row_flag(&g, e) {
                            bits.set(e.index());
                        } else {
                            bits.clear(e.index());
                        }
                    }
                }
                assert_eq!(bits, flags(&g), "{ctx}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitSet::new(10).get(10);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let _ = BitSet::new(10).count_and_not(&BitSet::new(11));
    }
}

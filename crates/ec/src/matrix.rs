//! Dense GF(2^8) matrices: generator construction and inversion.

use crate::{check_count, EcError};
use dialga_gf::Gf8;

/// A dense matrix over GF(2^8).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GfMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Gf8>,
}

impl GfMatrix {
    /// All-zero matrix.
    pub fn zero(rows: usize, cols: usize) -> Self {
        GfMatrix {
            rows,
            cols,
            data: vec![Gf8::ZERO; rows * cols],
        }
    }

    /// Build from nested vectors (rows of equal length).
    pub fn from_rows(rows: Vec<Vec<Gf8>>) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in &rows {
            assert_eq!(row.len(), c, "ragged matrix rows");
            data.extend_from_slice(row);
        }
        GfMatrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow one row as a slice.
    pub fn row(&self, r: usize) -> &[Gf8] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Clone into nested vectors (for bitmatrix expansion).
    pub fn to_rows(&self) -> Vec<Vec<Gf8>> {
        (0..self.rows).map(|r| self.row(r).to_vec()).collect()
    }

    /// Cauchy parity matrix: `P[i][j] = 1 / (x_i + y_j)` with
    /// `x_i = i + k`, `y_j = j`. Every square submatrix of a Cauchy matrix
    /// is invertible, so `[I; P]` is MDS for any (k, m) with k+m <= 255.
    /// This mirrors ISA-L's `gf_gen_cauchy1_matrix`.
    pub fn cauchy_parity(k: usize, m: usize) -> Self {
        let mut p = Self::zero(m, k);
        for i in 0..m {
            for j in 0..k {
                let x = Gf8((i + k) as u8);
                let y = Gf8(j as u8);
                p[(i, j)] = (x + y).inv();
            }
        }
        p
    }

    /// Cauchy parity matrix with caller-chosen X/Y elements (used by the
    /// Zerasure/Cerasure-style matrix searches, which anneal / greedily pick
    /// these sets to minimize bitmatrix ones).
    ///
    /// # Panics
    /// Panics if any `x` equals any `y` (the Cauchy condition) or if the
    /// element counts don't match (m x-elements, k y-elements).
    pub fn cauchy_parity_xy(xs: &[u8], ys: &[u8]) -> Self {
        let (m, k) = (xs.len(), ys.len());
        let mut p = Self::zero(m, k);
        for (i, &x) in xs.iter().enumerate() {
            for (j, &y) in ys.iter().enumerate() {
                assert_ne!(x, y, "Cauchy requires disjoint X and Y sets");
                p[(i, j)] = (Gf8(x) + Gf8(y)).inv();
            }
        }
        p
    }

    /// Vandermonde-derived systematic parity matrix, mirroring ISA-L's
    /// `gf_gen_rs_matrix`: build the (k+m) x k Vandermonde matrix
    /// `V[i][j] = i^j`, reduce the top k x k block to identity by column
    /// operations, and return the bottom m rows.
    ///
    /// Note (as in ISA-L): this construction is only guaranteed MDS for
    /// m <= 2 plus select geometries; [`GfMatrix::cauchy_parity`] is the
    /// default for general (k, m).
    pub fn vandermonde_parity(k: usize, m: usize) -> Result<Self, EcError> {
        let n = k + m;
        let mut v = Self::zero(n, k);
        for i in 0..n {
            for j in 0..k {
                v[(i, j)] = Gf8(i as u8).pow(j as u32);
            }
        }
        // Column-reduce so the top k x k block becomes identity.
        for col in 0..k {
            // Find a row >= col with nonzero pivot in this column among the
            // top-k rows; Vandermonde guarantees one exists.
            let pivot = (col..k)
                .find(|&r| v[(r, col)] != Gf8::ZERO)
                .ok_or(EcError::SingularMatrix)?;
            if pivot != col {
                for j in 0..k {
                    let tmp = v[(pivot, j)];
                    v[(pivot, j)] = v[(col, j)];
                    v[(col, j)] = tmp;
                }
            }
            let inv = v[(col, col)].inv();
            // Scale column so diagonal is 1: multiply column entries of all
            // rows by inv of pivot... column ops act on all n rows.
            if inv != Gf8::ONE {
                for r in 0..n {
                    v[(r, col)] *= inv;
                }
            }
            for j in 0..k {
                if j != col {
                    let f = v[(col, j)];
                    if f != Gf8::ZERO {
                        for r in 0..n {
                            let sub = v[(r, col)] * f;
                            v[(r, j)] += sub;
                        }
                    }
                }
            }
        }
        let mut p = Self::zero(m, k);
        for i in 0..m {
            for j in 0..k {
                p[(i, j)] = v[(k + i, j)];
            }
        }
        Ok(p)
    }

    /// Gauss–Jordan inversion. Returns [`EcError::SingularMatrix`] if not
    /// invertible.
    pub fn inverse(&self) -> Result<GfMatrix, EcError> {
        assert_eq!(self.rows, self.cols, "inverse of non-square matrix");
        let all: Vec<usize> = (0..self.rows).collect();
        self.minor_inverse(&all, &all)
    }

    /// Matrix product.
    pub fn matmul(&self, rhs: &GfMatrix) -> GfMatrix {
        assert_eq!(self.cols, rhs.rows, "matmul dimension mismatch");
        let mut out = Self::zero(self.rows, rhs.cols);
        for r in 0..self.rows {
            for i in 0..self.cols {
                let a = self[(r, i)];
                if a == Gf8::ZERO {
                    continue;
                }
                for c in 0..rhs.cols {
                    let add = a * rhs[(i, c)];
                    out[(r, c)] += add;
                }
            }
        }
        out
    }

    /// Extract the rows listed in `indices` (in order).
    pub fn select_rows(&self, indices: &[usize]) -> GfMatrix {
        let mut out = Self::zero(indices.len(), self.cols);
        for (i, &r) in indices.iter().enumerate() {
            for c in 0..self.cols {
                out[(i, c)] = self[(r, c)];
            }
        }
        out
    }

    /// Invert the minor `self[rows, cols]` (rows and columns in the order
    /// listed) by Gauss–Jordan on `[minor | I]`, in one allocation. A minor
    /// that is not square, or is singular, is [`EcError::SingularMatrix`].
    pub fn minor_inverse(&self, rows: &[usize], cols: &[usize]) -> Result<GfMatrix, EcError> {
        let n = rows.len();
        if cols.len() != n {
            return Err(EcError::SingularMatrix);
        }
        let mut a = Self::zero(n, 2 * n);
        for (i, &r) in rows.iter().enumerate() {
            for (c, &j) in cols.iter().enumerate() {
                a[(i, c)] = self[(r, j)];
            }
            a[(i, n + i)] = Gf8::ONE;
        }
        for col in 0..n {
            let pivot = (col..n)
                .find(|&r| a[(r, col)] != Gf8::ZERO)
                .ok_or(EcError::SingularMatrix)?;
            a.swap_rows(pivot, col);
            a.scale_row(col, a[(col, col)].inv());
            for r in 0..n {
                let factor = a[(r, col)];
                if r != col && factor != Gf8::ZERO {
                    a.sub_scaled_row(col, r, factor);
                }
            }
        }
        // `[I | minor⁻¹]`: keep the right half.
        for r in 0..n {
            a.data.copy_within((2 * r + 1) * n..(2 * r + 2) * n, r * n);
        }
        a.data.truncate(n * n);
        a.cols = n;
        Ok(a)
    }

    /// Rows `targets` of `G · G[survivors]⁻¹`, where `self` is the `m x k`
    /// parity matrix `P` of the systematic code `G = [I; P]`: the
    /// coefficients that rebuild each target from the `k` survivors, in
    /// survivor order (for data targets,
    /// `ReedSolomon::decode_matrix(survivors)?.select_rows(targets)`).
    ///
    /// Only the minor `A = P[R, L]` is inverted, `R` the parity survivors
    /// and `L` the lost data (`G[survivors]` is invertible exactly when `A`
    /// is): `P[R, L] · x_L = p_R + P[R, D] · x_D` over the data survivors
    /// `D`, so target `t` weighs `R` by `y = G[t, L] · A⁻¹` and `j ∈ D` by
    /// `G[t, j] + y · P[R, j]`. Errors are `decode_matrix`'s, a target
    /// `>= k + m` included; a repeated survivor makes `A` singular.
    pub fn decode_rows(&self, survivors: &[usize], targets: &[usize]) -> Result<GfMatrix, EcError> {
        let (m, k) = (self.rows, self.cols);
        check_count(survivors.len() == k, k, survivors.len())?;
        for &i in survivors.iter().chain(targets) {
            check_count(i < k + m, k + m, i)?;
        }
        // `A`'s rows (the parity survivors), then its columns (the lost data).
        let mut minor = Vec::with_capacity(2 * m.min(k));
        minor.extend(survivors.iter().filter_map(|s| s.checked_sub(k)));
        let e = minor.len();
        minor.extend((0..k).filter(|j| !survivors.contains(j)));
        let (parity, lost) = minor.split_at(e);
        let inv = self.minor_inverse(parity, lost)?;
        // A row's columns: the data survivors', and the parity survivors'
        // in `A`'s row order.
        let on_data = || survivors.iter().enumerate().filter(|&(_, &s)| s < k);
        let on_parity = || survivors.iter().enumerate().filter(|&(_, &s)| s >= k);
        let mut rows = Self::zero(targets.len(), k);
        for (i, &t) in targets.iter().enumerate() {
            // `G[t, D]` on the data survivors, then `y · P[R, D]` added on.
            for (c, &s) in on_data() {
                rows[(i, c)] = match t.checked_sub(k) {
                    Some(r) => self[(r, s)],
                    None => Gf8((s == t).into()),
                };
            }
            let lost_at = lost.iter().position(|&l| l == t);
            for (a, (pc, &p)) in on_parity().enumerate() {
                // `y[a]` of `y = G[t, L] · A⁻¹`: a parity target's row of
                // `P` over `L` times `A⁻¹`, a lost data target's row of
                // `A⁻¹`, nothing for a surviving data target.
                let y = match (t.checked_sub(k), lost_at) {
                    (Some(r), _) => lost
                        .iter()
                        .enumerate()
                        .fold(Gf8::ZERO, |acc, (b, &l)| acc + self[(r, l)] * inv[(b, a)]),
                    (None, Some(b)) => inv[(b, a)],
                    (None, None) => Gf8::ZERO,
                };
                rows[(i, pc)] = y;
                for (c, &s) in on_data() {
                    rows[(i, c)] += y * self[(p - k, s)];
                }
            }
        }
        Ok(rows)
    }

    fn swap_rows(&mut self, r1: usize, r2: usize) {
        if r1 == r2 {
            return;
        }
        for c in 0..self.cols {
            self.data.swap(r1 * self.cols + c, r2 * self.cols + c);
        }
    }

    fn scale_row(&mut self, r: usize, f: Gf8) {
        for c in 0..self.cols {
            self[(r, c)] *= f;
        }
    }

    /// `rows[dst] -= f * rows[src]` (== `+=` in characteristic 2).
    fn sub_scaled_row(&mut self, src: usize, dst: usize, f: Gf8) {
        for c in 0..self.cols {
            let v = self[(src, c)] * f;
            self[(dst, c)] += v;
        }
    }
}

impl std::ops::Index<(usize, usize)> for GfMatrix {
    type Output = Gf8;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &Gf8 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for GfMatrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Gf8 {
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stack [I_k ; P] into the full generator matrix.
    fn generator(k: usize, p: &GfMatrix) -> GfMatrix {
        let mut g = GfMatrix::zero(k + p.rows(), k);
        for i in 0..k {
            g[(i, i)] = Gf8::ONE;
        }
        for r in 0..p.rows() {
            for c in 0..k {
                g[(k + r, c)] = p[(r, c)];
            }
        }
        g
    }

    /// Every k-subset of rows of the generator must be invertible (MDS).
    fn assert_mds(k: usize, m: usize, p: &GfMatrix) {
        let g = generator(k, p);
        let n = k + m;
        // Exhaustively test all k-subsets for small n, else a sample.
        let mut subsets: Vec<Vec<usize>> = Vec::new();
        let mut cur = Vec::new();
        fn rec(start: usize, n: usize, k: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
            if cur.len() == k {
                out.push(cur.clone());
                return;
            }
            if out.len() > 300 {
                return; // cap work for larger geometries
            }
            for i in start..n {
                cur.push(i);
                rec(i + 1, n, k, cur, out);
                cur.pop();
            }
        }
        rec(0, n, k, &mut cur, &mut subsets);
        for s in subsets {
            let sub = g.select_rows(&s);
            assert!(sub.inverse().is_ok(), "k={k} m={m} subset {s:?} singular");
        }
    }

    #[test]
    fn cauchy_is_mds_small() {
        for (k, m) in [(2, 2), (3, 2), (4, 3), (5, 4)] {
            let p = GfMatrix::cauchy_parity(k, m);
            assert_mds(k, m, &p);
        }
    }

    #[test]
    fn cauchy_large_geometry_valid() {
        // The paper's widest stripe: RS(52, 48) -> k=48, m=4.
        let p = GfMatrix::cauchy_parity(48, 4);
        assert_eq!(p.rows(), 4);
        assert_eq!(p.cols(), 48);
        // Parity matrix must have no zero entries (Cauchy property).
        for i in 0..4 {
            for j in 0..48 {
                assert_ne!(p[(i, j)], Gf8::ZERO);
            }
        }
    }

    #[test]
    fn vandermonde_m2_is_mds() {
        for k in [2usize, 4, 8, 12] {
            let p = GfMatrix::vandermonde_parity(k, 2).unwrap();
            assert_mds(k, 2, &p);
        }
    }

    #[test]
    fn inverse_roundtrip() {
        let p = GfMatrix::cauchy_parity(4, 4);
        let inv = p.inverse().unwrap();
        let mut id = GfMatrix::zero(4, 4);
        (0..4).for_each(|i| id[(i, i)] = Gf8::ONE);
        assert_eq!(p.matmul(&inv), id);
        assert_eq!(inv.matmul(&p), id);
    }

    #[test]
    fn singular_detected() {
        let m = GfMatrix::zero(3, 3);
        assert_eq!(m.inverse(), Err(EcError::SingularMatrix));
    }

    #[test]
    fn cauchy_xy_matches_default() {
        let k = 5;
        let m = 3;
        let xs: Vec<u8> = (0..m).map(|i| (i + k) as u8).collect();
        let ys: Vec<u8> = (0..k).map(|j| j as u8).collect();
        assert_eq!(
            GfMatrix::cauchy_parity_xy(&xs, &ys),
            GfMatrix::cauchy_parity(k, m)
        );
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn cauchy_xy_rejects_overlap() {
        GfMatrix::cauchy_parity_xy(&[1, 2], &[2, 3]);
    }

    #[test]
    fn select_rows_orders() {
        let p = GfMatrix::cauchy_parity(3, 2);
        let sel = p.select_rows(&[1, 0]);
        assert_eq!(sel[(0, 0)], p[(1, 0)]);
        assert_eq!(sel[(1, 2)], p[(0, 2)]);
    }
}

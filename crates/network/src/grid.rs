//! Uniform grid partitioning of the road-network plane.
//!
//! The StIU spatial index "partition\[s\] the road network G using grid
//! cells, each of which represents a region `re_i`" (§5.2); the paper's
//! Fig. 9 sweeps the number of cells from 8×8 to 128×128. Range queries
//! also use grid-aligned regions.

use crate::geom::{Point, Rect};
use crate::graph::RoadNetwork;

/// Identifier of a grid cell (row-major: `cell = row * nx + col`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub u32);

impl CellId {
    /// The cell index as a `usize`.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// A uniform `nx × ny` grid over a bounding rectangle.
#[derive(Debug, Clone)]
pub struct Grid {
    bounds: Rect,
    nx: u32,
    ny: u32,
    cell_w: f64,
    cell_h: f64,
}

impl Grid {
    /// Builds a grid over an explicit bounding rectangle.
    ///
    /// The rectangle is expanded by a tiny epsilon so points exactly on the
    /// max boundary land in the last cell.
    pub fn new(bounds: Rect, nx: u32, ny: u32) -> Self {
        assert!(nx > 0 && ny > 0, "grid must have at least one cell");
        let eps_x = (bounds.width().max(1.0)) * 1e-9;
        let eps_y = (bounds.height().max(1.0)) * 1e-9;
        let bounds = Rect::new(
            bounds.min_x,
            bounds.min_y,
            bounds.max_x + eps_x,
            bounds.max_y + eps_y,
        );
        Self {
            bounds,
            nx,
            ny,
            cell_w: bounds.width() / f64::from(nx),
            cell_h: bounds.height() / f64::from(ny),
        }
    }

    /// Builds an `n × n` grid over a network's bounding rectangle (the
    /// paper's "number of grid cells = n²" parameter).
    pub fn over_network(net: &RoadNetwork, n: u32) -> Self {
        Self::new(net.bounding_rect(), n, n)
    }

    /// Grid dimensions `(nx, ny)`.
    pub fn dims(&self) -> (u32, u32) {
        (self.nx, self.ny)
    }

    /// Total number of cells.
    pub fn cell_count(&self) -> usize {
        self.nx as usize * self.ny as usize
    }

    /// The cell containing a point (points outside the bounds clamp to the
    /// border cells).
    pub fn cell_of(&self, p: Point) -> CellId {
        let col = (((p.x - self.bounds.min_x) / self.cell_w).floor() as i64)
            .clamp(0, i64::from(self.nx) - 1) as u32;
        let row = (((p.y - self.bounds.min_y) / self.cell_h).floor() as i64)
            .clamp(0, i64::from(self.ny) - 1) as u32;
        CellId(row * self.nx + col)
    }

    /// The rectangle covered by a cell.
    pub fn cell_rect(&self, cell: CellId) -> Rect {
        let row = cell.0 / self.nx;
        let col = cell.0 % self.nx;
        let min_x = self.bounds.min_x + f64::from(col) * self.cell_w;
        let min_y = self.bounds.min_y + f64::from(row) * self.cell_h;
        Rect::new(min_x, min_y, min_x + self.cell_w, min_y + self.cell_h)
    }

    /// All cells whose rectangle intersects `rect`.
    pub fn cells_overlapping(&self, rect: &Rect) -> Vec<CellId> {
        self.cells_in(rect).collect()
    }

    /// The cells of [`Grid::cells_overlapping`], row by row, without
    /// collecting them.
    pub fn cells_in(&self, rect: &Rect) -> impl Iterator<Item = CellId> {
        let lo = self.cell_of(Point::new(rect.min_x, rect.min_y));
        let hi = self.cell_of(Point::new(rect.max_x, rect.max_y));
        let nx = self.nx;
        let (lo_row, lo_col) = (lo.0 / nx, lo.0 % nx);
        let (hi_row, hi_col) = (hi.0 / nx, hi.0 % nx);
        (lo_row..=hi_row)
            .flat_map(move |row| (lo_col..=hi_col).map(move |col| CellId(row * nx + col)))
    }

    /// The union rectangle of a set of cells — the `re_total` of Lemma 4.
    pub fn union_rect(&self, cells: &[CellId]) -> Option<Rect> {
        let mut it = cells.iter();
        let first = self.cell_rect(*it.next()?);
        Some(it.fold(first, |acc, &c| acc.union(self.cell_rect(c))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid4() -> Grid {
        Grid::new(Rect::new(0.0, 0.0, 40.0, 40.0), 4, 4)
    }

    #[test]
    fn cell_of_corners() {
        let g = grid4();
        assert_eq!(g.cell_of(Point::new(0.0, 0.0)), CellId(0));
        assert_eq!(g.cell_of(Point::new(39.9, 0.0)), CellId(3));
        assert_eq!(g.cell_of(Point::new(0.0, 39.9)), CellId(12));
        // Max boundary lands in the last cell rather than overflowing.
        assert_eq!(g.cell_of(Point::new(40.0, 40.0)), CellId(15));
    }

    #[test]
    fn out_of_bounds_clamps() {
        let g = grid4();
        assert_eq!(g.cell_of(Point::new(-5.0, -5.0)), CellId(0));
        assert_eq!(g.cell_of(Point::new(99.0, 99.0)), CellId(15));
    }

    #[test]
    fn cell_rect_roundtrip() {
        let g = grid4();
        for i in 0..16 {
            let r = g.cell_rect(CellId(i));
            assert_eq!(g.cell_of(r.center()), CellId(i));
        }
    }

    #[test]
    fn overlap_enumeration() {
        let g = grid4();
        let cells = g.cells_overlapping(&Rect::new(5.0, 5.0, 15.0, 25.0));
        assert_eq!(
            cells,
            vec![
                CellId(0),
                CellId(1),
                CellId(4),
                CellId(5),
                CellId(8),
                CellId(9)
            ]
        );
        let one = g.cells_overlapping(&Rect::new(11.0, 11.0, 12.0, 12.0));
        assert_eq!(one, vec![CellId(5)]);
    }

    #[test]
    fn union_rect_covers_cells() {
        let g = grid4();
        let r = g.union_rect(&[CellId(0), CellId(5)]).unwrap();
        assert!(r.contains(Point::new(1.0, 1.0)));
        assert!(r.contains(Point::new(19.0, 19.0)));
        assert!(g.union_rect(&[]).is_none());
    }

    #[test]
    fn degenerate_bounds_still_work() {
        // A single-vertex network has a zero-area bounding rect.
        let g = Grid::new(Rect::new(3.0, 3.0, 3.0, 3.0), 8, 8);
        assert_eq!(g.cell_of(Point::new(3.0, 3.0)), CellId(0));
    }
}

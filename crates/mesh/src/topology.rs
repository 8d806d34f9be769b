//! Paragon 2-D mesh topology and XY (dimension-order) routing.

/// Flat node identifier, row-major over the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Mesh coordinates: `x` is the column, `y` the row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Coord {
    pub x: usize,
    pub y: usize,
}

/// Mesh shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    pub cols: usize,
    pub rows: usize,
}

impl Topology {
    /// A `cols × rows` mesh; both dimensions must be nonzero.
    pub fn new(cols: usize, rows: usize) -> Self {
        assert!(cols > 0 && rows > 0, "degenerate mesh");
        Topology { cols, rows }
    }

    /// Smallest mesh with at least `n` nodes, roughly square but keeping
    /// the Paragon's wider-than-tall aspect.
    pub fn for_nodes(n: usize) -> Self {
        assert!(n > 0);
        let rows = (n as f64).sqrt().floor() as usize;
        let rows = rows.max(1);
        let cols = n.div_ceil(rows);
        Topology { cols, rows }
    }

    /// Total node count.
    pub fn nodes(&self) -> usize {
        self.cols * self.rows
    }

    /// Coordinates of `node`. Panics if out of range.
    pub(crate) fn coord(&self, node: NodeId) -> Coord {
        assert!(node.0 < self.nodes(), "node {} out of range", node.0);
        Coord {
            x: node.0 % self.cols,
            y: node.0 / self.cols,
        }
    }

    /// Flat id of `coord`.
    pub(crate) fn node_at(&self, c: Coord) -> NodeId {
        assert!(c.x < self.cols && c.y < self.rows);
        NodeId(c.y * self.cols + c.x)
    }

    /// Hop count of the XY route between two nodes (Manhattan distance).
    pub fn hops(&self, a: NodeId, b: NodeId) -> usize {
        let ca = self.coord(a);
        let cb = self.coord(b);
        ca.x.abs_diff(cb.x) + ca.y.abs_diff(cb.y)
    }

    /// The full XY route from `a` to `b`, inclusive of both endpoints:
    /// first travel in X, then in Y — the Paragon's dimension-order rule.
    pub fn route(&self, a: NodeId, b: NodeId) -> Vec<NodeId> {
        let ca = self.coord(a);
        let cb = self.coord(b);
        let mut path = vec![a];
        let mut cur = ca;
        while cur.x != cb.x {
            cur.x = if cb.x > cur.x { cur.x + 1 } else { cur.x - 1 };
            path.push(self.node_at(cur));
        }
        while cur.y != cb.y {
            cur.y = if cb.y > cur.y { cur.y + 1 } else { cur.y - 1 };
            path.push(self.node_at(cur));
        }
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coord_roundtrip() {
        let t = Topology::new(4, 3);
        for i in 0..t.nodes() {
            let n = NodeId(i);
            assert_eq!(t.node_at(t.coord(n)), n);
        }
    }

    #[test]
    fn hops_is_manhattan() {
        let t = Topology::new(4, 4);
        let a = t.node_at(Coord { x: 0, y: 0 });
        let b = t.node_at(Coord { x: 3, y: 2 });
        assert_eq!(t.hops(a, b), 5);
        assert_eq!(t.hops(a, a), 0);
    }

    #[test]
    fn route_is_x_then_y_and_length_matches_hops() {
        let t = Topology::new(5, 5);
        let a = t.node_at(Coord { x: 1, y: 4 });
        let b = t.node_at(Coord { x: 4, y: 1 });
        let route = t.route(a, b);
        assert_eq!(route.len(), t.hops(a, b) + 1);
        assert_eq!(route.first(), Some(&a));
        assert_eq!(route.last(), Some(&b));
        // X leg first: y stays 4 until x reaches 4.
        let coords: Vec<Coord> = route.iter().map(|&n| t.coord(n)).collect();
        assert!(coords[..4].iter().all(|c| c.y == 4));
    }

    #[test]
    fn for_nodes_covers_request() {
        for n in 1..40 {
            let t = Topology::for_nodes(n);
            assert!(t.nodes() >= n, "{t:?} too small for {n}");
        }
    }
}

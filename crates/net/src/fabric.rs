//! Fabric construction: the link inventory of a topology and the
//! route (link sequence) between any two devices.

use crate::spec::{LinkSpec, Topology};

/// One built link: a name for reports and the shared physical spec.
#[derive(Debug, Clone)]
pub struct Link {
    /// Stable name, e.g. `up3`, `down0`, `ring2`, `leaf_up1`.
    pub name: String,
    /// Physical parameters.
    pub spec: LinkSpec,
}

/// A built fabric: every link of the topology plus the routing
/// function. Link indices are stable for a given (topology, size):
/// `up[0..n]`, then `down[0..n]`, then the fabric trunks in
/// topology order.
#[derive(Debug, Clone)]
pub struct Fabric {
    topology: Topology,
    n_devices: usize,
    links: Vec<Link>,
}

impl Fabric {
    /// Builds the link inventory of `topology` over `n_devices`
    /// devices, every link provisioned at `spec`.
    ///
    /// For a [`Topology::Tree`], the leaf count is
    /// `⌈n_devices / leaf_group⌉`; a single-leaf tree degenerates to
    /// `one_big_switch` routing (no trunk hops).
    pub fn build(topology: Topology, n_devices: usize, spec: LinkSpec) -> Self {
        let mut links = Vec::new();
        for i in 0..n_devices {
            links.push(Link { name: format!("up{i}"), spec });
        }
        for i in 0..n_devices {
            links.push(Link { name: format!("down{i}"), spec });
        }
        match topology {
            Topology::OneBigSwitch => {}
            Topology::Ring => {
                for i in 0..n_devices {
                    links.push(Link { name: format!("ring{i}"), spec });
                }
            }
            Topology::Tree { leaf_group } => {
                let leaves = n_devices.div_ceil(leaf_group.max(1));
                for j in 0..leaves {
                    links.push(Link { name: format!("leaf_up{j}"), spec });
                }
                for j in 0..leaves {
                    links.push(Link { name: format!("leaf_down{j}"), spec });
                }
            }
        }
        Fabric { topology, n_devices, links }
    }

    /// Devices the fabric was built for.
    pub fn n_devices(&self) -> usize {
        self.n_devices
    }

    /// The link inventory, in index order.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Index of device `i`'s `up` (device → fabric) link.
    pub fn up(&self, i: usize) -> usize {
        i
    }

    /// Index of device `i`'s `down` (fabric → device) link.
    pub fn down(&self, i: usize) -> usize {
        self.n_devices + i
    }

    /// The link sequence a packet from device `a` to device `b`
    /// traverses. `a == b` yields an empty route (no fabric crossing).
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    pub fn route(&self, a: usize, b: usize) -> Vec<usize> {
        assert!(a < self.n_devices && b < self.n_devices, "device out of range");
        if a == b {
            return Vec::new();
        }
        let trunk_base = 2 * self.n_devices;
        match self.topology {
            Topology::OneBigSwitch => vec![self.up(a), self.down(b)],
            Topology::Ring => {
                // Clockwise from switch a to switch b, then drop down.
                let mut route = vec![self.up(a)];
                let mut s = a;
                while s != b {
                    route.push(trunk_base + s);
                    s = (s + 1) % self.n_devices;
                }
                route.push(self.down(b));
                route
            }
            Topology::Tree { leaf_group } => {
                let g = leaf_group.max(1);
                let (la, lb) = (a / g, b / g);
                if la == lb {
                    vec![self.up(a), self.down(b)]
                } else {
                    let leaves = self.n_devices.div_ceil(g);
                    vec![
                        self.up(a),
                        trunk_base + la,          // leaf_up[la]
                        trunk_base + leaves + lb, // leaf_down[lb]
                        self.down(b),
                    ]
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_big_switch_routes_are_two_hops() {
        let f = Fabric::build(Topology::OneBigSwitch, 4, LinkSpec::default());
        assert_eq!(f.links().len(), 8);
        assert_eq!(f.route(0, 3), vec![0, 7]);
        assert_eq!(f.route(3, 0), vec![3, 4]);
        assert!(f.route(2, 2).is_empty());
    }

    #[test]
    fn ring_routes_travel_clockwise() {
        let f = Fabric::build(Topology::Ring, 4, LinkSpec::default());
        assert_eq!(f.links().len(), 12);
        // 1 → 2: up1, ring1, down2.
        assert_eq!(f.route(1, 2), vec![1, 9, 4 + 2]);
        // 3 → 1 wraps: up3, ring3, ring0, down1.
        assert_eq!(f.route(3, 1), vec![3, 11, 8, 5]);
        assert_eq!(f.links()[11].name, "ring3");
    }

    #[test]
    fn tree_routes_cross_the_root_only_between_leaves() {
        let f = Fabric::build(Topology::Tree { leaf_group: 2 }, 4, LinkSpec::default());
        // up×4 + down×4 + leaf_up×2 + leaf_down×2.
        assert_eq!(f.links().len(), 12);
        // Same leaf: no trunk.
        assert_eq!(f.route(0, 1), vec![0, 5]);
        // Cross leaf: up0, leaf_up0, leaf_down1, down3.
        assert_eq!(f.route(0, 3), vec![0, 8, 11, 7]);
        assert_eq!(f.links()[8].name, "leaf_up0");
        assert_eq!(f.links()[11].name, "leaf_down1");
    }

    #[test]
    fn every_route_starts_up_and_ends_down() {
        for topo in [Topology::OneBigSwitch, Topology::Ring, Topology::Tree { leaf_group: 3 }] {
            let f = Fabric::build(topo, 7, LinkSpec::default());
            for a in 0..7 {
                for b in 0..7 {
                    if a == b {
                        continue;
                    }
                    let r = f.route(a, b);
                    assert_eq!(r[0], f.up(a), "{topo:?} {a}->{b}");
                    assert_eq!(*r.last().unwrap(), f.down(b), "{topo:?} {a}->{b}");
                    assert!(r.len() as u64 <= topo.max_route_links(7), "{topo:?} {a}->{b}");
                }
            }
        }
        // The ring's bound is tight: 1 → 0 crosses all but one trunk.
        let ring = Fabric::build(Topology::Ring, 7, LinkSpec::default());
        assert_eq!(ring.route(1, 0).len() as u64, Topology::Ring.max_route_links(7));
    }
}

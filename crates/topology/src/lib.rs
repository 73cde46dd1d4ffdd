//! # harmony-topology
//!
//! Hardware description of a commodity multi-GPU server: devices with
//! memory capacity and compute rate, and a graph of *directed bandwidth
//! channels* connecting GPUs to each other and to host memory.
//!
//! This substitutes for the paper's physical testbed (four 11 GB NVIDIA
//! 1080Ti GPUs behind PCIe switches with a 4:1-oversubscribed host link,
//! Fig 2(b)). The interconnect properties that produce the paper's
//! bottlenecks are modelled explicitly:
//!
//! * every GPU has its own PCIe lanes to its switch (full duplex → one
//!   channel per direction);
//! * all GPUs behind a switch *share* the switch's host uplink — the
//!   oversubscribed resource that throttles data-parallel swapping
//!   (Fig 2a);
//! * GPU↔GPU transfers through a common switch do **not** cross the host
//!   uplink — the fast p2p path Harmony exploits (§3, optimization 3).
//!
//! A server is described once, as GPUs under switches under the host
//! (plus any direct GPU↔GPU links), and [`Topology::route`] derives each
//! transfer's channels from that tree on demand; the discrete-event
//! simulator applies fair-share contention per channel.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod presets;

use std::fmt;

/// Identifier of a GPU device (index into the topology's GPUs, see
/// [`Topology::gpu`]).
pub type GpuId = usize;

/// A memory endpoint: host RAM or one GPU's memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Endpoint {
    /// Host (CPU) memory.
    Host,
    /// GPU `i`'s device memory.
    Gpu(GpuId),
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Host => write!(f, "host"),
            Endpoint::Gpu(i) => write!(f, "gpu{i}"),
        }
    }
}

/// A GPU's static properties.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpec {
    /// Usable device memory in bytes.
    pub mem_bytes: u64,
    /// Sustained compute throughput in FLOP/s (fp32).
    pub flops: f64,
}

/// Identifier of a directed bandwidth channel.
pub type ChannelId = usize;

/// A directed bandwidth channel (one direction of a physical link).
#[derive(Debug, Clone, PartialEq)]
pub struct Channel {
    /// Stable id.
    pub id: ChannelId,
    /// Human-readable name, e.g. `"gpu2->switch0"`.
    pub name: String,
    /// Capacity in bytes/second, shared fairly among concurrent transfers.
    pub bandwidth: f64,
}

/// Errors from topology construction and routing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// No route between the requested endpoints.
    NoRoute {
        /// Source endpoint.
        src: Endpoint,
        /// Destination endpoint.
        dst: Endpoint,
    },
    /// A referenced GPU does not exist.
    UnknownGpu(GpuId),
    /// Invalid construction parameter.
    Invalid(String),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::NoRoute { src, dst } => write!(f, "no route {src} -> {dst}"),
            TopologyError::UnknownGpu(g) => write!(f, "unknown gpu {g}"),
            TopologyError::Invalid(msg) => write!(f, "invalid topology: {msg}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// One physical link as its two directed channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// The channel toward the upper level: GPU → switch, switch → host,
    /// or out of a switch toward the other switches.
    pub up: ChannelId,
    /// The channel in the opposite direction.
    pub down: ChannelId,
}

/// A switch's two links: its host uplink, and the port pair p2p to a GPU
/// under another switch leaves (`up`) and enters (`down`) by.
#[derive(Debug, Clone, Copy)]
struct Switch {
    host: Link,
    fabric: Link,
}

/// The ordered channels a transfer traverses: a small value of at most
/// four channels (lane, switch port, peer switch port, peer lane) that
/// derefs to `&[ChannelId]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    len: usize,
    hops: [ChannelId; 4],
}

impl Route {
    fn new(route: &[ChannelId]) -> Route {
        let mut hops = [0; 4];
        hops[..route.len()].copy_from_slice(route);
        Route {
            len: route.len(),
            hops,
        }
    }
}

impl std::ops::Deref for Route {
    type Target = [ChannelId];

    fn deref(&self) -> &[ChannelId] {
        &self.hops[..self.len]
    }
}

/// A server's device and interconnect description: GPUs under switches
/// under the host, plus any direct GPU→GPU links. Routes are derived
/// from it on demand, so a server costs O(GPUs + links), never O(GPUs²).
#[derive(Debug, Clone, Default)]
pub struct Topology {
    /// Display name, e.g. `"4x1080Ti (PCIe, 4:1)"`.
    pub name: String,
    gpus: Vec<GpuSpec>,
    channels: Vec<Channel>,
    /// Per GPU: the switch it hangs off and its own lane to it, `None`
    /// for a GPU with no PCIe link.
    attach: Vec<Option<(usize, Link)>>,
    switches: Vec<Switch>,
    /// Direct GPU→GPU channels sorted by `(src, dst)`, consulted before
    /// the tree.
    direct: Vec<((GpuId, GpuId), ChannelId)>,
}

/// Builder used by presets and tests to assemble a topology.
#[derive(Debug)]
pub struct TopologyBuilder(Topology);

impl TopologyBuilder {
    /// Starts a named topology.
    pub fn new(name: impl Into<String>) -> Self {
        TopologyBuilder(Topology {
            name: name.into(),
            ..Topology::default()
        })
    }

    /// Adds a GPU, returning its id. `lane` is the switch it hangs off and
    /// its own link to it; a GPU with none is reached only by direct links.
    pub fn gpu(&mut self, spec: GpuSpec, lane: Option<(usize, Link)>) -> GpuId {
        self.0.gpus.push(spec);
        self.0.attach.push(lane);
        self.0.gpus.len() - 1
    }

    /// Adds a directed channel, returning its id.
    pub fn channel(&mut self, name: impl Into<String>, bandwidth: f64) -> ChannelId {
        let id = self.0.channels.len();
        self.0.channels.push(Channel {
            id,
            name: name.into(),
            bandwidth,
        });
        id
    }

    /// Adds the two channels of one full-duplex link, `up` first.
    pub fn link(&mut self, up: impl Into<String>, down: impl Into<String>, bandwidth: f64) -> Link {
        Link {
            up: self.channel(up, bandwidth),
            down: self.channel(down, bandwidth),
        }
    }

    /// Adds the next switch, with host uplink `host` and cross-switch port
    /// pair `fabric`.
    pub fn switch(&mut self, host: Link, fabric: Link) {
        self.0.switches.push(Switch { host, fabric });
    }

    /// Adds a direct channel from `src` to `dst`: their route is that one
    /// channel, whatever the tree between them.
    pub fn direct(&mut self, src: GpuId, dst: GpuId, channel: ChannelId) {
        self.0.direct.push(((src, dst), channel));
    }

    /// Finalises the topology, validating every switch, GPU and channel
    /// reference.
    pub fn build(self) -> Result<Topology, TopologyError> {
        let mut t = self.0;
        t.direct.sort_unstable();
        let attach = t.attach.iter().flatten();
        let links = (attach.clone().map(|&(_, lane)| lane))
            .chain(t.switches.iter().flat_map(|s| [s.host, s.fabric]));
        let mut refs = links
            .flat_map(|l| [l.up, l.down])
            .chain(t.direct.iter().map(|&(_, c)| c));
        if let Some(c) = refs.find(|&c| c >= t.channels.len()) {
            return Err(TopologyError::Invalid(format!("unknown channel {c}")));
        }
        if let Some((s, _)) = attach.clone().find(|&&(s, _)| s >= t.switches.len()) {
            return Err(TopologyError::Invalid(format!("unknown switch {s}")));
        }
        for (i, &((src, dst), _)) in t.direct.iter().enumerate() {
            if src.max(dst) >= t.gpus.len() {
                return Err(TopologyError::UnknownGpu(src.max(dst)));
            }
            if src == dst || (i > 0 && t.direct[i - 1].0 == (src, dst)) {
                let msg = format!("direct link {src}->{dst} loops or repeats");
                return Err(TopologyError::Invalid(msg));
            }
        }
        Ok(t)
    }
}

impl Topology {
    /// Number of GPUs.
    pub fn num_gpus(&self) -> usize {
        self.gpus.len()
    }

    /// GPU spec by id.
    pub fn gpu(&self, id: GpuId) -> Result<&GpuSpec, TopologyError> {
        self.gpus.get(id).ok_or(TopologyError::UnknownGpu(id))
    }

    /// All channels.
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// The switch a GPU hangs off: its host swaps share that switch's
    /// uplink, and its p2p to a GPU under another switch crosses both
    /// switches' fabric ports.
    pub fn switch_of(&self, id: GpuId) -> Result<usize, TopologyError> {
        let attach = self.attach.get(id).ok_or(TopologyError::UnknownGpu(id))?;
        attach.map(|(s, _)| s).ok_or(TopologyError::NoRoute {
            src: Endpoint::Gpu(id),
            dst: Endpoint::Host,
        })
    }

    /// The ordered channel list a transfer from `src` to `dst` traverses,
    /// derived from the tree: a direct link if one exists, else the
    /// GPU's lane and its switch's host uplink, the two lanes through a
    /// shared switch, or the lanes and both switches' fabric ports.
    ///
    /// ```
    /// use harmony_topology::{presets, Endpoint};
    /// let topo = presets::commodity_4x1080ti();
    /// // Host swaps cross two channels: the GPU's lane and the shared uplink.
    /// assert_eq!(topo.route(Endpoint::Gpu(0), Endpoint::Host).unwrap().len(), 2);
    /// // p2p through the switch never touches the uplink.
    /// assert!(topo.p2p_avoids_host_uplink(0, 3).unwrap());
    /// // Across switches, p2p leaves by one switch's port and enters by the
    /// // other's: four channels.
    /// let wide = presets::commodity_server(presets::CommodityParams::gtx_1080ti(4, 2)).unwrap();
    /// let route = wide.route(Endpoint::Gpu(0), Endpoint::Gpu(3)).unwrap();
    /// let names: Vec<_> = route.iter().map(|&c| wide.channels()[c].name.as_str()).collect();
    /// assert_eq!(names, ["gpu0->sw0", "sw0->host", "host->sw1", "sw1->gpu3"]);
    /// ```
    pub fn route(&self, src: Endpoint, dst: Endpoint) -> Result<Route, TopologyError> {
        let attach = |g: GpuId| self.attach.get(g).copied().flatten();
        let route = match (src, dst) {
            (Endpoint::Gpu(g), Endpoint::Gpu(h)) if g != h => {
                match self.direct.binary_search_by_key(&(g, h), |&(pair, _)| pair) {
                    Ok(i) => Some(Route::new(&[self.direct[i].1])),
                    Err(_) => attach(g).zip(attach(h)).map(|((s, a), (t, b))| {
                        if s == t {
                            Route::new(&[a.up, b.down])
                        } else {
                            let (out, into) =
                                (self.switches[s].fabric.up, self.switches[t].fabric.down);
                            Route::new(&[a.up, out, into, b.down])
                        }
                    }),
                }
            }
            (Endpoint::Gpu(g), Endpoint::Host) => {
                attach(g).map(|(s, lane)| Route::new(&[lane.up, self.switches[s].host.up]))
            }
            (Endpoint::Host, Endpoint::Gpu(g)) => {
                attach(g).map(|(s, lane)| Route::new(&[self.switches[s].host.down, lane.down]))
            }
            _ => None,
        };
        route.ok_or(TopologyError::NoRoute { src, dst })
    }

    /// Zero-contention transfer time for `bytes` from `src` to `dst`
    /// (bottleneck-channel model).
    pub fn ideal_transfer_secs(
        &self,
        src: Endpoint,
        dst: Endpoint,
        bytes: u64,
    ) -> Result<f64, TopologyError> {
        let route = self.route(src, dst)?;
        let min_bw = route
            .iter()
            .map(|&c| self.channels[c].bandwidth)
            .fold(f64::INFINITY, f64::min);
        if !min_bw.is_finite() || min_bw <= 0.0 {
            return Err(TopologyError::Invalid(format!(
                "route {src}->{dst} has no usable bandwidth"
            )));
        }
        Ok(bytes as f64 / min_bw)
    }

    /// Host-uplink oversubscription ratio: the sum of per-GPU lane
    /// bandwidth behind each switch divided by that switch's uplink
    /// bandwidth, maximised over switches. 1.0 means no oversubscription.
    ///
    /// This is the "4:1 or 8:1" figure the paper cites for commodity
    /// servers (§2, inefficiency 3).
    pub fn host_oversubscription(&self) -> f64 {
        let mut lanes = vec![0.0; self.switches.len()];
        for &(s, lane) in self.attach.iter().flatten() {
            lanes[s] += self.channels[lane.up].bandwidth;
        }
        lanes
            .iter()
            .zip(&self.switches)
            .map(|(sum, s)| sum / self.channels[s.host.up].bandwidth)
            .fold(1.0, f64::max)
    }

    /// True if GPU↔GPU transfers between `a` and `b` avoid `a`'s host
    /// uplink — i.e. p2p does not contend with host swaps beyond the
    /// GPUs' own lanes.
    pub fn p2p_avoids_host_uplink(&self, a: GpuId, b: GpuId) -> Result<bool, TopologyError> {
        let p2p = self.route(Endpoint::Gpu(a), Endpoint::Gpu(b))?;
        let uplink = self.route(Endpoint::Gpu(a), Endpoint::Host)?[1];
        Ok(!p2p.contains(&uplink))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_gpu_topo() -> Topology {
        let mut b = TopologyBuilder::new("test");
        let spec = GpuSpec {
            mem_bytes: 1 << 30,
            flops: 1e12,
        };
        let lane0 = b.link("gpu0->sw", "sw->gpu0", 10.0);
        let lane1 = b.link("gpu1->sw", "sw->gpu1", 10.0);
        let host = b.link("sw->host", "host->sw", 10.0);
        b.gpu(spec, Some((0, lane0)));
        b.gpu(spec, Some((0, lane1)));
        b.switch(host, host);
        b.build().unwrap()
    }

    #[test]
    fn routes_resolve() {
        let t = two_gpu_topo();
        assert_eq!(t.route(Endpoint::Gpu(0), Endpoint::Host).unwrap().len(), 2);
        assert!(t.route(Endpoint::Host, Endpoint::Host).is_err());
        assert!(t.route(Endpoint::Gpu(1), Endpoint::Gpu(1)).is_err());
        assert!(t.route(Endpoint::Gpu(2), Endpoint::Host).is_err());
    }

    #[test]
    fn direct_links_override_the_tree() {
        let mut b = TopologyBuilder::new("direct");
        let spec = GpuSpec {
            mem_bytes: 1 << 30,
            flops: 1e12,
        };
        let lane0 = b.link("gpu0->sw", "sw->gpu0", 10.0);
        let lane1 = b.link("gpu1->sw", "sw->gpu1", 10.0);
        let host = b.link("sw->host", "host->sw", 10.0);
        b.gpu(spec, Some((0, lane0)));
        b.gpu(spec, Some((0, lane1)));
        b.switch(host, host);
        let nv = b.channel("nv0->1", 100.0);
        b.direct(0, 1, nv);
        let t = b.build().unwrap();
        assert_eq!(&*t.route(Endpoint::Gpu(0), Endpoint::Gpu(1)).unwrap(), [nv]);
        // Only the linked direction is overridden.
        assert_eq!(
            &*t.route(Endpoint::Gpu(1), Endpoint::Gpu(0)).unwrap(),
            [lane1.up, lane0.down]
        );
    }

    #[test]
    fn ideal_transfer_uses_bottleneck() {
        let t = two_gpu_topo();
        let secs = t
            .ideal_transfer_secs(Endpoint::Gpu(0), Endpoint::Host, 100)
            .unwrap();
        assert!((secs - 10.0).abs() < 1e-9);
    }

    #[test]
    fn oversubscription_counts_shared_uplink() {
        let t = two_gpu_topo();
        // Two 10 B/s GPU links share one 10 B/s uplink → 2:1.
        assert!((t.host_oversubscription() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn p2p_route_avoids_uplink() {
        let t = two_gpu_topo();
        assert!(t.p2p_avoids_host_uplink(0, 1).unwrap());
    }

    #[test]
    fn build_rejects_dangling_refs() {
        let spec = GpuSpec {
            mem_bytes: 1,
            flops: 1.0,
        };
        let mut b = TopologyBuilder::new("bad");
        b.gpu(spec, Some((0, Link { up: 99, down: 98 })));
        let c = b.channel("c", 1.0);
        b.switch(Link { up: c, down: c }, Link { up: c, down: c });
        assert!(b.build().is_err());

        let mut b = TopologyBuilder::new("bad2");
        let c = b.channel("c", 1.0);
        b.gpu(spec, Some((1, Link { up: c, down: c })));
        b.switch(Link { up: c, down: c }, Link { up: c, down: c });
        assert!(b.build().is_err());

        let mut b = TopologyBuilder::new("bad3");
        let c = b.channel("c", 1.0);
        b.direct(0, 3, c);
        assert!(matches!(b.build(), Err(TopologyError::UnknownGpu(3))));

        let mut b = TopologyBuilder::new("bad4");
        let c = b.channel("c", 1.0);
        b.gpu(spec, None);
        b.direct(0, 0, c);
        assert!(b.build().is_err());
    }

    #[test]
    fn gpu_lookup_bounds() {
        let t = two_gpu_topo();
        assert!(t.gpu(0).is_ok());
        assert!(t.gpu(5).is_err());
        assert_eq!(t.switch_of(1).unwrap(), 0);
        assert!(t.switch_of(9).is_err());
    }
}

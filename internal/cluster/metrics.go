package cluster

import (
	"repro/internal/obs"
)

// clusterMetrics is the router's instrument set. The cluster shares one
// registry with its nodes: each node's serve families carry a node=<id>
// label (injected at Join), while the router's own families below are
// unlabeled, so one /metrics scrape shows the whole topology — routing
// totals next to every node's cache behavior.
type clusterMetrics struct {
	reg *obs.Registry

	// requests counts runs routed in the cell of the run's primary node
	// (its index in the membership then), padded to a cache line each, so
	// readers routed to different primaries write different lines. A
	// departed node's runs stay in the cells.
	requests [maxNodes]struct {
		obs.Counter
		_ [48]byte
	}
	failovers *obs.Counter
	allDown   *obs.Counter
	probes    *obs.Counter
	handles   *obs.Counter
}

func newClusterMetrics(reg *obs.Registry, c *Cluster) *clusterMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &clusterMetrics{reg: reg}
	reg.CounterFunc("cluster_requests_total",
		"runs routed through the ring (a run: the part of one read inside one granule)",
		func() float64 { return float64(m.routed()) })
	m.failovers = reg.Counter("cluster_failovers_total",
		"extra replica attempts after a failed one")
	m.allDown = reg.Counter("cluster_all_replicas_down_total",
		"reads that exhausted every replica")
	m.probes = reg.Counter("cluster_peer_probes_total",
		"peer-fill Peeks of another node's cache, asked only of nodes routed the block's granule")
	m.handles = reg.Counter("cluster_handles_opened_total",
		"client sessions opened through the router")
	reg.GaugeFunc("cluster_nodes",
		"serve nodes currently on the ring",
		func() float64 { return float64(len(c.view.Load().nodes)) })
	return m
}

// routed totals the requests cells.
func (m *clusterMetrics) routed() int64 {
	var n int64
	for i := range m.requests {
		n += m.requests[i].Value()
	}
	return n
}

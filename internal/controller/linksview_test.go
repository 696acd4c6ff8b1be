package controller

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/topo"
)

// The scans below are the LinksDB reads as they were before the
// controller kept a LinksDB view: every call sorts, reads and parses
// every key. TestLinksViewMatchesScan holds the view to them.

func refPath(n *store.Node, src, dst topo.DPID) []topo.DPID {
	if src == dst {
		return []topo.DPID{src}
	}
	adj := make(map[topo.DPID][]topo.DPID)
	for _, key := range n.Keys(store.LinksDB) {
		if v, _ := n.Get(store.LinksDB, key); v != "up" {
			continue
		}
		s, d, err := parseLinkKey(key)
		if err != nil {
			continue
		}
		adj[s.DPID] = append(adj[s.DPID], d.DPID)
	}
	prev := map[topo.DPID]topo.DPID{src: src}
	queue := []topo.DPID{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range adj[cur] {
			if _, seen := prev[next]; seen {
				continue
			}
			prev[next] = cur
			if next == dst {
				var rev []topo.DPID
				for at := dst; ; at = prev[at] {
					rev = append(rev, at)
					if at == src {
						break
					}
				}
				out := make([]topo.DPID, len(rev))
				for i, d := range rev {
					out[len(rev)-1-i] = d
				}
				return out
			}
			queue = append(queue, next)
		}
	}
	return nil
}

func refEgress(n *store.Node, from, to topo.DPID) (uint16, bool) {
	for _, key := range n.Keys(store.LinksDB) {
		if v, _ := n.Get(store.LinksDB, key); v != "up" {
			continue
		}
		s, d, err := parseLinkKey(key)
		if err != nil {
			continue
		}
		if s.DPID == from && d.DPID == to {
			return s.Port, true
		}
	}
	return 0, false
}

func refIsLinkPort(n *store.Node, dpid topo.DPID, port uint16) bool {
	for _, key := range n.Keys(store.LinksDB) {
		s, d, err := parseLinkKey(key)
		if err != nil {
			continue
		}
		if (s.DPID == dpid && s.Port == port) || (d.DPID == dpid && d.Port == port) {
			return true
		}
	}
	return false
}

// TestLinksViewMatchesScan drives seeded random LinksDB sequences —
// creates, updates to "up", "down" or another value, deletes, parallel
// links between one switch pair, and keys that do not parse — through
// the replicas of a two-controller cluster, and requires after every
// step that each controller's path, egress and link-port answers equal
// the LinksDB scans' for every switch pair and port, unknown switches
// and ports included.
func TestLinksViewMatchesScan(t *testing.T) {
	const switches, ports = 5, 3
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			r := newRig(t, 2, switches, quietProfile())
			randPort := func() topo.Port {
				return topo.Port{DPID: topo.DPID(1 + rng.Intn(switches)), Port: uint16(1 + rng.Intn(ports))}
			}
			values := []string{"up", "up", "up", "down", "stale"}
			paths, downs := 0, 0 // multi-hop paths seen, "up" -> "down" updates
			for step := 0; step < 150; step++ {
				n := r.ctrl(1 + rng.Intn(2)).Node()
				keys := n.Keys(store.LinksDB)
				switch op := rng.Intn(10); {
				case op < 5 || len(keys) == 0:
					key := LinkKey(randPort(), randPort())
					if rng.Intn(12) == 0 {
						key = []string{"bogus", "1:2->3", " 1:1-> 2:1", "2:1->1:1x"}[rng.Intn(4)]
					}
					n.Write(store.LinksDB, store.OpCreate, key, values[rng.Intn(len(values))], nil)
				case op < 9:
					key, v := keys[rng.Intn(len(keys))], values[rng.Intn(len(values))]
					if prev, _ := n.Get(store.LinksDB, key); prev == "up" && v == "down" {
						downs++
					}
					n.Write(store.LinksDB, store.OpUpdate, key, v, nil)
				default:
					n.Write(store.LinksDB, store.OpDelete, keys[rng.Intn(len(keys))], "", nil)
				}
				r.run(t)
				for _, c := range r.ctrls {
					for src := topo.DPID(0); src <= switches+1; src++ {
						for dst := topo.DPID(0); dst <= switches+1; dst++ {
							want := refPath(c.node, src, dst)
							for range 2 { // computed, then memoized
								if got := c.pathFromLinksDB(src, dst); !reflect.DeepEqual(got, want) {
									t.Fatalf("step %d: C%d path %v->%v = %v; scan gives %v", step, c.id, src, dst, got, want)
								}
							}
							if len(want) > 1 {
								paths++
							}
							gp, gok := c.egressFromLinksDB(src, dst)
							wp, wok := refEgress(c.node, src, dst)
							if gp != wp || gok != wok {
								t.Fatalf("step %d: C%d egress %v->%v = %d, %v; scan gives %d, %v", step, c.id, src, dst, gp, gok, wp, wok)
							}
						}
						for p := uint16(0); p <= ports+1; p++ {
							if got, want := c.isLinkPort(src, p), refIsLinkPort(c.node, src, p); got != want {
								t.Fatalf("step %d: C%d isLinkPort(%v, %d) = %v; scan gives %v", step, c.id, src, p, got, want)
							}
						}
					}
				}
			}
			if paths == 0 || downs == 0 {
				t.Fatalf("degenerate run: %d multi-hop paths, %d up-to-down updates", paths, downs)
			}
		})
	}
}

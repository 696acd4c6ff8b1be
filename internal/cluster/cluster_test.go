package cluster

import (
	"testing"

	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/topo"
)

func ids(n int) []store.NodeID {
	var out []store.NodeID
	for i := 1; i <= n; i++ {
		out = append(out, store.NodeID(i))
	}
	return out
}

func dpids(n int) []topo.DPID {
	var out []topo.DPID
	for i := 1; i <= n; i++ {
		out = append(out, topo.DPID(i))
	}
	return out
}

func TestRoundRobinMastership(t *testing.T) {
	m := NewMembership(AnyControllerOneMaster, ids(3), dpids(6))
	counts := map[store.NodeID]int{}
	for _, d := range dpids(6) {
		master, ok := m.Master(d)
		if !ok {
			t.Fatalf("switch %v has no master", d)
		}
		counts[master]++
	}
	for id, c := range counts {
		if c != 2 {
			t.Fatalf("controller %d masters %d switches, want 2", id, c)
		}
	}
}

func TestActivePassiveSingleMaster(t *testing.T) {
	m := NewMembership(ActivePassive, ids(3), dpids(4))
	for _, d := range dpids(4) {
		if master, _ := m.Master(d); master != 1 {
			t.Fatalf("active-passive master = %d, want 1", master)
		}
	}
}

func TestGoverned(t *testing.T) {
	m := NewMembership(AnyControllerOneMaster, ids(2), dpids(4))
	g1 := m.Governed(1)
	g2 := m.Governed(2)
	if len(g1)+len(g2) != 4 {
		t.Fatalf("governance does not cover all switches: %v %v", g1, g2)
	}
	for _, d := range g1 {
		if !m.IsMaster(1, d) {
			t.Fatal("IsMaster disagrees with Governed")
		}
	}
}

func TestFailover(t *testing.T) {
	m := NewMembership(AnyControllerOneMaster, ids(3), dpids(6))
	var changed []topo.DPID
	m.Observe(func(d topo.DPID, _ store.NodeID) { changed = append(changed, d) })
	before := m.Governed(2)
	m.MarkDead(2)
	if m.IsAlive(2) {
		t.Fatal("dead controller still alive")
	}
	if len(m.Governed(2)) != 0 {
		t.Fatal("dead controller still masters switches")
	}
	if len(changed) != len(before) {
		t.Fatalf("observer saw %d changes, want %d", len(changed), len(before))
	}
	for _, d := range before {
		master, _ := m.Master(d)
		if master == 2 || !m.IsAlive(master) {
			t.Fatalf("switch %v failed over to %d", d, master)
		}
	}
}

func TestMarkAliveRejoin(t *testing.T) {
	m := NewMembership(AnyControllerOneMaster, ids(3), dpids(3))
	m.MarkDead(3)
	m.MarkAlive(3)
	if !m.IsAlive(3) {
		t.Fatal("rejoin failed")
	}
	if got := len(m.Alive()); got != 3 {
		t.Fatalf("alive = %d", got)
	}
}

func TestAllDeadNoPanic(t *testing.T) {
	m := NewMembership(AnyControllerOneMaster, ids(2), dpids(2))
	m.MarkDead(1)
	m.MarkDead(2)
	if len(m.Alive()) != 0 {
		t.Fatal("alive should be empty")
	}
}

func TestLinkLivenessMasterIsHigherID(t *testing.T) {
	m := NewMembership(AnyControllerOneMaster, ids(3), dpids(6))
	// Switch 1 → C1, switch 2 → C2 (round robin).
	master, ok := m.LinkLivenessMaster(1, 2)
	if !ok || master != 2 {
		t.Fatalf("liveness master = %d, want 2 (higher id)", master)
	}
	// Symmetric.
	if back, _ := m.LinkLivenessMaster(2, 1); back != master {
		t.Fatal("liveness election not symmetric")
	}
}

func TestSetMasterNotifiesObservers(t *testing.T) {
	m := NewMembership(SingleController, ids(2), dpids(2))
	var gotDPID topo.DPID
	var gotID store.NodeID
	m.Observe(func(d topo.DPID, id store.NodeID) { gotDPID, gotID = d, id })
	m.SetMaster(1, 2)
	if gotDPID != 1 || gotID != 2 {
		t.Fatalf("observer got %v/%d", gotDPID, gotID)
	}
	if !m.IsMaster(2, 1) {
		t.Fatal("SetMaster did not take effect")
	}
}

func TestModeStrings(t *testing.T) {
	if AnyControllerOneMaster.String() != "ANY_CONTROLLER_ONE_MASTER" {
		t.Fatal(AnyControllerOneMaster.String())
	}
	if SingleController.String() != "SINGLE_CONTROLLER" {
		t.Fatal(SingleController.String())
	}
	if ActivePassive.String() != "ACTIVE_PASSIVE" {
		t.Fatal(ActivePassive.String())
	}
}

func TestMembersSorted(t *testing.T) {
	m := NewMembership(AnyControllerOneMaster, []store.NodeID{3, 1, 2}, dpids(1))
	m.MarkDead(2)
	if m.Size() != 3 {
		t.Fatalf("size = %d, want 3 (dead members still count)", m.Size())
	}
	got := m.Alive()
	if len(got) != 2 {
		t.Fatalf("alive = %v, want 2 members", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("members unsorted: %v", got)
		}
	}
}

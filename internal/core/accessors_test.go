package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/jurysdn/jury/internal/cluster"
	"github.com/jurysdn/jury/internal/simnet"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/topo"
)

// TestAccessorsSafeUnderConcurrentSubmit exercises the satellite contract:
// Pending(), Alarms() and the counter accessors must be safe to call from
// live goroutines while the decision loop runs. The suite runs under
// -race in CI, so any unsynchronized read fails here.
func TestAccessorsSafeUnderConcurrentSubmit(t *testing.T) {
	eng := simnet.NewEngine(1)
	members := cluster.NewMembership(cluster.AnyControllerOneMaster,
		[]store.NodeID{1, 2, 3}, []topo.DPID{1, 2})
	v := NewValidator(eng, members, ValidatorConfig{K: 2, Timeout: 20 * time.Millisecond})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = v.Pending()
				_ = v.Alarms()
				_ = v.Faults()
				_ = v.Decided()
				_ = v.FalsePositiveRate()
			}
		}()
	}
	// The decision loop stays on this goroutine (the sim contract); the
	// readers race against Submit, timer expiry and alarm retention.
	for i := 0; i < 2000; i++ {
		trig := fmt.Sprintf("τ%d", i)
		at := time.Duration(i) * 100 * time.Microsecond
		eng.At(at, func() { v.Submit(execResp(2, 1, trig, "k", "up", 9)) })
		eng.At(at, func() { v.Submit(execResp(3, 1, trig, "k", "up", 9)) })
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if v.Faults() == 0 {
		t.Fatal("omission workload raised no alarms")
	}
	if v.Pending() != 0 {
		t.Fatalf("Pending() = %d after idle, want 0", v.Pending())
	}
}

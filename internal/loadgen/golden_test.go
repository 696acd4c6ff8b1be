package loadgen

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// streamHash is the FNV-64a digest of the first n events of the bench's
// configuration (bench/workload.go: 65 536 hosts, 1 024 links, 10 000
// flows/s, churn 200/150/20) at seed, over At, the kind by name, Src,
// Dst, Link and Up.
func streamHash(t *testing.T, seed int64, n int) uint64 {
	t.Helper()
	s := mustSource(t, Config{
		Hosts: 65536, Links: 1024, MeanRate: 10000, Seed: seed,
		Churn: ChurnSpec{JoinRate: 200, LeaveRate: 150, FlapRate: 20},
	})
	h := fnv.New64a()
	var buf [33]byte
	for i := 0; i < n; i++ {
		ev := s.Next()
		binary.LittleEndian.PutUint64(buf[0:], uint64(ev.At))
		binary.LittleEndian.PutUint64(buf[8:], ev.Src)
		binary.LittleEndian.PutUint64(buf[16:], ev.Dst)
		binary.LittleEndian.PutUint64(buf[24:], uint64(ev.Link))
		buf[32] = 0
		if ev.Up {
			buf[32] = 1
		}
		h.Write(buf[:33])
		h.Write([]byte(ev.Kind.String()))
	}
	return h.Sum64()
}

// TestSourceStreamGolden pins the event stream the end-to-end bench
// replays, value for value: a change to the arrival kernel, a stream's
// seeding, the tie order or the virtual-time unit of Event.At moves a
// hash. The hashes are a capture, not a number to refresh.
func TestSourceStreamGolden(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		want uint64
	}{
		{1, 0xd9d7755c4085c62f},
		{7, 0xa3e9b7b654937fb3},
	} {
		if got := streamHash(t, tc.seed, 1_000_000); got != tc.want {
			t.Errorf("seed %d: stream hash %#x, want %#x", tc.seed, got, tc.want)
		}
	}
}

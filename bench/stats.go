package main

import (
	"bufio"
	"bytes"
	"net"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0-100) of xs by nearest rank,
// or 0 for no samples. xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(p / 100 * float64(len(xs)))
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// Interference on a shared box only ever slows a slice down, and comes in
// bursts that can outlast half a run (measured: README.md), so a run
// reports the decile of its slices on the undisturbed side rather than
// their median: the upper decile of a rate, the lower decile of a time or
// cost. Of 15 slices that is the second best.
func upperDecile(xs []float64) float64 { return percentile(xs, 90) }
func lowerDecile(xs []float64) float64 { return percentile(xs, 10) }

// micros converts nanosecond samples to microseconds.
func micros(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	return out
}

// ratio is a/b, or 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// snapshot is the process state at one edge of a measure window.
type snapshot struct {
	at     time.Time
	cpuUS  float64 // rusage user+sys: client, server and bench together
	mem    runtime.MemStats
	rx, tx int64 // bytes on the client's connection
	reads  int64 // Read and Write calls on the client's connection
	writes int64
}

// cpuTimeUS is the process's user+system CPU time so far.
func cpuTimeUS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e3
}

func takeSnapshot(conn *connCounters) snapshot {
	var s snapshot
	runtime.ReadMemStats(&s.mem)
	s.cpuUS = cpuTimeUS()
	if conn != nil {
		s.rx, s.tx = conn.rx.Load(), conn.tx.Load()
		s.reads, s.writes = conn.reads.Load(), conn.writes.Load()
	}
	s.at = time.Now()
	return s
}

// connCounters total the bytes and calls crossing the client's socket,
// across reconnects.
type connCounters struct {
	rx, tx, reads, writes atomic.Int64
}

// countingConn is the net.Conn wrapper ClientConfig.Dial returns.
type countingConn struct {
	net.Conn
	n *connCounters
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.rx.Add(int64(n))
	c.n.reads.Add(1)
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.tx.Add(int64(n))
	c.n.writes.Add(1)
	return n, err
}

// scrape parses a Prometheus text page into sample → value, summing the
// children of a family under its bare name as well (so
// jury_shard_enqueued_total is the total over shards).
func scrape(page []byte) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(page))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		out[name] = v
		if br := strings.IndexByte(name, '{'); br >= 0 {
			out[name[:br]] += v
		}
	}
	return out
}

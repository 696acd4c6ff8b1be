// Package mapfix seeds maprange violations: order-sensitive map
// iteration in simulation-driven code, alongside the sorted-keys idiom
// and annotated order-insensitive loops that must stay clean.
package mapfix

import "sort"

// Leak appends values in randomized visit order.
func Leak(m map[string]int) []int {
	var out []int
	for _, v := range m { // want maprange "iteration order is randomized"
		out = append(out, v)
	}
	return out
}

// FirstWins lets visit order pick the survivor.
func FirstWins(m map[string]int) string {
	for k := range m { // want maprange "iteration order is randomized"
		return k
	}
	return ""
}

// KeyValuePairs collects both halves, so the body is not the pure
// key-collection idiom even though the keys get sorted later.
func KeyValuePairs(m map[string]int) []string {
	var keys []string
	for k, v := range m { // want maprange "iteration order is randomized"
		_ = v
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// UnsortedKeys collects keys but never orders them.
func UnsortedKeys(m map[string]int) []string {
	var keys []string
	for k := range m { // want maprange "iteration order is randomized"
		keys = append(keys, k)
	}
	return keys
}

// StaleSweep is the controller's stale-links sweep with its sort made a
// no-op, the maprange mutant of EXPERIMENTS.md's mutant audit that no
// test killed: the overdue keys reach the emitted writes, and the
// trigger IDs those writes draw, in map visit order.
func StaleSweep(lastSeen map[string]int, now, deadline int, emit func(string)) {
	var stale []string
	for key, seen := range lastSeen { // want maprange "iteration order is randomized"
		if now-seen > deadline {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale[:0])
	for _, key := range stale {
		emit(key)
	}
}

// SortedKeys is the canonical deterministic idiom and stays clean.
func SortedKeys(m map[string]int) []int {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]int, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}

// SortedSlice uses sort.Slice instead of sort.Strings; still clean.
func SortedSlice(m map[int]int) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Sum is order-insensitive and says so.
func Sum(m map[string]int) int {
	total := 0
	//jurylint:allow maprange -- commutative aggregation; visit order cannot change the sum
	for _, v := range m {
		total += v
	}
	return total
}

// NotAMap ranges over a slice and is out of scope.
func NotAMap(xs []int) int {
	n := 0
	for range xs {
		n++
	}
	return n
}

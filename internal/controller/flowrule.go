package controller

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"github.com/jurysdn/jury/internal/openflow"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/topo"
	"github.com/jurysdn/jury/internal/trigger"
)

// FlowRule is the FlowsDB representation of a flow entry: controllers issue
// FLOW_MODs to local and remote switches by writing rules to the flow cache
// (§II-A1); the governing controller of the target switch observes the
// cache update and emits the actual FLOW_MOD.
type FlowRule struct {
	DPID        topo.DPID         `json:"dpid"`
	Match       openflow.Match    `json:"match"`
	Priority    uint16            `json:"priority"`
	Actions     []openflow.Action `json:"actions"`
	IdleTimeout uint16            `json:"idleTimeoutSec,omitempty"`
	HardTimeout uint16            `json:"hardTimeoutSec,omitempty"`
	Command     uint16            `json:"command"`

	// Trigger and Origin attribute the rule to the trigger and controller
	// that produced it, carrying JURY's taint through the cache.
	Trigger trigger.ID   `json:"trigger,omitempty"`
	Origin  store.NodeID `json:"origin"`
	// State tracks the ONOS-style entry lifecycle: empty = PENDING_ADD
	// (written, not yet confirmed on the switch), RuleAdded after the
	// reconciler sees it in the switch's flow stats, RuleStuck after
	// repeated confirmations failed (the appendix PENDING_ADD symptom).
	State string `json:"state,omitempty"`
}

// Flow rule lifecycle states (the ONOS PENDING_ADD/ADDED machine).
const (
	RuleAdded = "added"
	RuleStuck = "pending-add-stuck"
)

// Key returns the FlowsDB key for the rule: target switch plus a digest of
// the match and priority, so add/modify/delete address the same entry.
func (r FlowRule) Key() string {
	var buf [256]byte
	b := strconv.AppendUint(buf[:0], uint64(r.DPID), 10)
	b = r.Match.AppendTo(append(b, '|'))
	b = strconv.AppendUint(append(b, '|'), uint64(r.Priority), 10)
	h := uint64(14695981039346656037) // FNV-1a, as hash/fnv's New64a
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return string(openflow.AppendHex(append(r.DPID.AppendTo(buf[:0]), '/'), h, 16))
}

// KeyDPID returns the target switch a FlowsDB key names: the inverse of
// the "of:<16 hex digits>/" prefix Key renders. ok is false when key does
// not start that way.
func KeyDPID(key string) (dpid topo.DPID, ok bool) {
	const digits = 16
	if len(key) < len("of:")+digits+1 || key[:3] != "of:" || key[3+digits] != '/' {
		return 0, false
	}
	var v uint64
	for i := 3; i < 3+digits; i++ {
		x, ok := hexNibble(key[i])
		if !ok {
			return 0, false
		}
		v = v<<4 | uint64(x)
	}
	return topo.DPID(v), true
}

// FlowMod converts the rule to its OpenFlow message.
func (r FlowRule) FlowMod(xid uint32) *openflow.FlowMod {
	return &openflow.FlowMod{
		XID:         xid,
		Match:       r.Match,
		Command:     openflow.FlowModCommand(r.Command),
		IdleTimeout: r.IdleTimeout,
		HardTimeout: r.HardTimeout,
		Priority:    r.Priority,
		BufferID:    0xFFFFFFFF,
		OutPort:     openflow.PortNone,
		Actions:     r.Actions,
	}
}

// hostRecord is the HostDB / EdgesDB value for a learned host.
type hostRecord struct {
	MAC  string    `json:"mac"`
	IP   string    `json:"ip"`
	DPID topo.DPID `json:"dpid"`
	Port uint16    `json:"port"`
}

func (h hostRecord) encode() string {
	b, err := json.Marshal(h)
	if err != nil {
		return "{}"
	}
	return string(b)
}

func decodeHostRecord(s string) (hostRecord, error) {
	var h hostRecord
	if err := json.Unmarshal([]byte(s), &h); err != nil {
		return hostRecord{}, fmt.Errorf("controller: decode host record: %w", err)
	}
	return h, nil
}

// LinkKey renders the LinksDB key for a unidirectional link.
func LinkKey(src, dst topo.Port) string {
	return fmt.Sprintf("%d:%d->%d:%d", src.DPID, src.Port, dst.DPID, dst.Port)
}

// linkKey is the internal alias of LinkKey.
func linkKey(src, dst topo.Port) string { return LinkKey(src, dst) }

// parseLinkKey is the inverse of linkKey. It accepts exactly the keys
// fmt.Sscanf(key, "%d:%d->%d:%d") accepts into four uint64s, with the
// same values: white space other than a newline may precede each number,
// the separators must follow the digits directly, anything after the
// fourth number is ignored, and the ports keep their low 16 bits.
// FuzzParseLinkKey holds it to that Sscanf call, which it replaces on
// the per-PACKET_IN path.
func parseLinkKey(key string) (src, dst topo.Port, err error) {
	var v [4]uint64
	rest := key
	for i, sep := range [...]string{":", "->", ":", ""} {
		var ok bool
		if v[i], rest, ok = scanDecimal(rest); !ok || !strings.HasPrefix(rest, sep) {
			return topo.Port{}, topo.Port{}, fmt.Errorf("controller: bad link key %q", key)
		}
		rest = rest[len(sep):]
	}
	return topo.Port{DPID: topo.DPID(v[0]), Port: uint16(v[1])},
		topo.Port{DPID: topo.DPID(v[2]), Port: uint16(v[3])}, nil
}

// scanDecimal reads what fmt's %d verb reads into a uint64: optional
// white space other than a newline, then one or more ASCII digits whose
// value fits in 64 bits. It returns the input after the digits.
func scanDecimal(s string) (v uint64, rest string, ok bool) {
	for {
		r, size := utf8.DecodeRuneInString(s)
		if r == '\n' || !unicode.IsSpace(r) {
			break
		}
		s = s[size:]
	}
	n := 0
	for n < len(s) && '0' <= s[n] && s[n] <= '9' {
		n++
	}
	if n == 0 {
		return 0, s, false
	}
	v, err := strconv.ParseUint(s[:n], 10, 64)
	return v, s[n:], err == nil
}

package coord

import (
	"fmt"
	"regexp"
)

// WorkUnit is one leased shard as handed to a worker: the contiguous index
// range [Start, End) of the space's row-major point enumeration, the fenced
// lease ID the worker must renew and complete under, and enough context to
// sanity-check that worker and coordinator agree on the space.
type WorkUnit struct {
	// Shard is the shard's stable ID (its position in the shard sequence).
	Shard int `json:"shard"`
	// Start/End bound the point index range [Start, End).
	Start int `json:"start"`
	End   int `json:"end"`
	// Lease is the fenced lease ID ("s<shard>.g<generation>").
	Lease string `json:"lease"`
	// TTLMillis is the lease time-to-live; the worker must renew well within
	// it (conventionally every TTL/3) or the shard is reclaimed.
	TTLMillis int64 `json:"ttl_ms"`
	// Total is the coordinator's point count for the whole space — a worker
	// whose own enumeration disagrees must refuse the unit rather than
	// simulate the wrong points.
	Total int `json:"total"`
}

// leasePattern is the only lease shape a worker accepts.
var leasePattern = regexp.MustCompile(`^s[0-9]{1,9}\.g[0-9]{1,9}$`)

// Validate checks the unit's internal consistency — the decode-side firewall
// against a confused or malicious coordinator.
func (u *WorkUnit) Validate() error {
	switch {
	case u.Shard < 0:
		return fmt.Errorf("coord: work unit: negative shard %d", u.Shard)
	case u.Start < 0 || u.End <= u.Start:
		return fmt.Errorf("coord: work unit: empty or inverted range [%d, %d)", u.Start, u.End)
	case u.Total < u.End:
		return fmt.Errorf("coord: work unit: range end %d exceeds the space's %d points", u.End, u.Total)
	case u.TTLMillis <= 0:
		return fmt.Errorf("coord: work unit: non-positive TTL %dms", u.TTLMillis)
	case !leasePattern.MatchString(u.Lease):
		return fmt.Errorf("coord: work unit: malformed lease %q", u.Lease)
	}
	return nil
}

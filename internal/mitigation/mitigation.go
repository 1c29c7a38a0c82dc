// Package mitigation implements the countermeasure the paper proposes
// and prototyped as a QEMU patch (Section 6, "Quarantining VM
// Communications"): the hypervisor inspects guest-initiated memory
// resize requests and NACKs those whose pattern cannot correspond to
// an honest response to the hypervisor's own target.
//
// With target size T, current size V and requested change delta, a
// request is malicious when it overshoots the remaining gap
// (|delta| > |T-V|) or moves against it (delta * (T-V) < 0).
//
// The QEMU maintainers raised a deployment problem (Section 6):
// virtio-mem plug-failure retry unplugs look malicious to the
// quarantine rule. The stock Linux driver, after a failed plug,
// unplugs the block and retries, a sequence the rule classifies as
// malicious, so deploying the quarantine needs a feature flag plus
// driver updates. The simulation's stock driver does not implement the
// retry sequence, so experiments here see no false positives; the
// countermeasure was not merged.
package mitigation

import (
	"errors"
	"fmt"

	"hyperhammer/internal/trace"
	"hyperhammer/internal/virtio"
)

// ErrQuarantined reports a request refused by the quarantine policy.
var ErrQuarantined = errors.New("mitigation: request quarantined")

// Stats counts quarantine decisions for evaluation.
type Stats struct {
	// Allowed is the number of requests that passed the check.
	Allowed int
	// Blocked is the number of NACKed requests.
	Blocked int
}

// Quarantine builds a virtio.Guard implementing the paper's detection
// rule. The returned stats pointer is updated on every decision.
func Quarantine() (virtio.Guard, *Stats) {
	return Traced(nil)
}

// Traced is Quarantine with per-decision trace events: every inspected
// resize request emits "mitigation.allow" or "mitigation.block" with
// the request shape, so a trace shows exactly which guest behaviour
// tripped the rule. A nil recorder is free, making Quarantine() =
// Traced(nil).
func Traced(rec *trace.Recorder) (virtio.Guard, *Stats) {
	stats := &Stats{}
	guard := func(delta int64, current, requested uint64) error {
		gap := int64(requested) - int64(current)
		if delta*gap < 0 || abs(delta) > abs(gap) {
			stats.Blocked++
			rec.Emit("mitigation.block", "delta", delta, "current", current, "requested", requested)
			return fmt.Errorf("%w: delta=%d current=%d requested=%d",
				ErrQuarantined, delta, current, requested)
		}
		stats.Allowed++
		rec.Emit("mitigation.allow", "delta", delta, "current", current, "requested", requested)
		return nil
	}
	return guard, stats
}

func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
